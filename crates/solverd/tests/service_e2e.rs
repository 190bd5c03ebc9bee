//! End-to-end service tests through the line protocol, plus the determinism
//! contract between the service path and the direct library path.

use std::io::{BufReader, Read};
use std::sync::mpsc;
use std::time::Duration;

use runtime_stats::json::Json;
use solverd::{serve_connection, Service, ServiceConfig};

/// A reader that releases each chunk only after a delay, so a test can pace
/// the submission of requests against a deliberately tiny worker pool.
struct PacedReader {
    chunks: std::vec::IntoIter<(Duration, Vec<u8>)>,
    current: Vec<u8>,
    offset: usize,
}

impl PacedReader {
    fn new(chunks: Vec<(Duration, &str)>) -> Self {
        Self {
            chunks: chunks
                .into_iter()
                .map(|(delay, text)| (delay, text.as_bytes().to_vec()))
                .collect::<Vec<_>>()
                .into_iter(),
            current: Vec::new(),
            offset: 0,
        }
    }
}

impl Read for PacedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.offset >= self.current.len() {
            let Some((delay, chunk)) = self.chunks.next() else {
                return Ok(0); // EOF
            };
            std::thread::sleep(delay);
            self.current = chunk;
            self.offset = 0;
        }
        let n = buf.len().min(self.current.len() - self.offset);
        buf[..n].copy_from_slice(&self.current[self.offset..self.offset + n]);
        self.offset += n;
        Ok(n)
    }
}

fn parse_lines(output: &[u8]) -> Vec<Json> {
    std::str::from_utf8(output)
        .expect("utf8 output")
        .lines()
        .map(|line| Json::parse(line).expect("every response line is valid JSON"))
        .collect()
}

fn by_id<'a>(responses: &'a [Json], id: &str) -> &'a Json {
    responses
        .iter()
        .find(|doc| doc.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id:?}"))
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("field {key:?} missing in {doc:?}"))
}

/// The issue's mixed batch: solvable, deadline-expiring, malformed JSON,
/// unknown key and queue overflow, all through one connection, each answered
/// with its structured response class.
#[test]
fn mixed_batch_through_the_line_protocol() {
    // One worker and a one-slot queue so the overflow leg is forced: while the
    // worker chews on a slow request and one more waits in the queue, a third
    // must bounce with "queue-full".
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        fanout_walks: 1,
        ..ServiceConfig::default()
    });

    // A request the single worker will hold for a while: a hard instance with
    // a wall-clock deadline, so the test stays fast but the worker is provably
    // busy (t ≈ 0.3 s … 1.8 s) while the rest of the batch arrives.
    let slow = r#"{"id":"slow","problem":"costas","n":22,"budget":18446744073709551615,"deadline_ms":1500}"#;
    let reader = PacedReader::new(vec![
        (
            Duration::ZERO,
            "{\"id\":\"easy\",\"problem\":\"costas\",\"n\":10,\"seed\":42}\n",
        ),
        // Give the easy request time to finish so the pool is idle...
        (Duration::from_millis(300), &format!("{slow}\n")),
        // ...then let the worker surely pop `slow` off the queue, so `late`
        // takes the single queue slot (its 1 ms deadline expires right there,
        // behind `slow`) and `bounced` overflows.
        (
            Duration::from_millis(300),
            "{\"id\":\"late\",\"problem\":\"costas\",\"n\":18,\"deadline_ms\":1}\n",
        ),
        (
            Duration::ZERO,
            "{\"id\":\"bounced\",\"problem\":\"n-queens\",\"n\":16,\"seed\":2}\n",
        ),
        (Duration::ZERO, "this is not json\n"),
        (
            Duration::ZERO,
            "{\"id\":\"missing\",\"problem\":\"no-such-model\",\"n\":9}\n",
        ),
        // By now (t ≈ 2.0 s) `slow` has expired and `late` was answered from
        // the queue, so a normal request flows through the empty pool again.
        (
            Duration::from_millis(1400),
            "{\"id\":\"queued\",\"problem\":\"n-queens\",\"n\":16,\"seed\":1}\n",
        ),
    ]);

    let mut output = Vec::new();
    let submitted = serve_connection(&service, BufReader::new(reader), &mut output);
    assert_eq!(submitted, 7);
    let responses = parse_lines(&output);
    assert_eq!(responses.len(), 7, "one response per request line");

    let easy = by_id(&responses, "easy");
    assert_eq!(field(easy, "status"), "ok");
    assert_eq!(field(easy, "termination"), "solved");
    assert_eq!(easy.get("final_cost").and_then(Json::as_u64), Some(0));
    assert!(easy.get("solution").and_then(Json::as_array).is_some());

    let slow = by_id(&responses, "slow");
    assert_eq!(field(slow, "status"), "ok");
    assert_eq!(field(slow, "termination"), "deadline");
    assert_eq!(slow.get("solution"), Some(&Json::Null));

    let queued = by_id(&responses, "queued");
    assert_eq!(field(queued, "status"), "ok");
    assert_eq!(field(queued, "termination"), "solved");

    let bounced = by_id(&responses, "bounced");
    assert_eq!(field(bounced, "status"), "rejected");
    assert_eq!(field(bounced, "reason"), "queue-full");

    let garbage = by_id(&responses, "");
    assert_eq!(field(garbage, "status"), "error");
    assert_eq!(field(garbage, "reason"), "parse");

    let missing = by_id(&responses, "missing");
    assert_eq!(field(missing, "status"), "rejected");
    assert_eq!(field(missing, "reason"), "unknown-problem");
    assert!(field(missing, "detail").contains("no-such-model"));

    let late = by_id(&responses, "late");
    assert_eq!(field(late, "status"), "ok");
    assert_eq!(field(late, "termination"), "deadline");
    // Expired in the queue: answered without burning any iterations.
    assert_eq!(late.get("iterations").and_then(Json::as_u64), Some(0));
}

/// Real in-flight cancellation through the line protocol: a `{"cancel":...}`
/// line stops an unbounded solve mid-search (`"termination":"cancelled"`),
/// and the freed worker immediately picks up the queued request behind it.
#[test]
fn cancelling_an_in_flight_solve_frees_the_worker_for_queued_work() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        fanout_walks: 1,
        ..ServiceConfig::default()
    });

    // `long` would run forever: max budget, no deadline — only a cancel can
    // end it.  `next` queues behind it on the single worker.
    let long = r#"{"id":"long","problem":"costas","n":22,"budget":18446744073709551615,"seed":9}"#;
    let reader = PacedReader::new(vec![
        (Duration::ZERO, &format!("{long}\n")),
        // Let the worker provably pick `long` up and start iterating...
        (
            Duration::from_millis(300),
            "{\"id\":\"next\",\"problem\":\"costas\",\"n\":10,\"seed\":42}\n",
        ),
        // ...then cancel it out from under the worker.
        (Duration::from_millis(200), "{\"cancel\":\"long\"}\n"),
    ]);

    let start = std::time::Instant::now();
    let mut output = Vec::new();
    let submitted = serve_connection(&service, BufReader::new(reader), &mut output);
    let elapsed = start.elapsed();
    assert_eq!(submitted, 3);
    let responses = parse_lines(&output);
    assert_eq!(responses.len(), 3, "one response per line, cancel included");

    // Two lines carry id "long": the cancel-ack and the solve's own response.
    let long_lines: Vec<&Json> = responses
        .iter()
        .filter(|doc| doc.get("id").and_then(Json::as_str) == Some("long"))
        .collect();
    assert_eq!(long_lines.len(), 2, "cancel-ack plus the solve's answer");
    let ack = long_lines
        .iter()
        .find(|doc| field(doc, "status") == "cancel-ack")
        .expect("cancel is acknowledged");
    assert_eq!(ack.get("found").and_then(Json::as_bool), Some(true));
    let solve = long_lines
        .iter()
        .find(|doc| field(doc, "status") == "ok")
        .expect("the cancelled request still gets its typed answer");
    assert_eq!(field(solve, "termination"), "cancelled");
    assert_eq!(solve.get("solution"), Some(&Json::Null));
    assert!(
        solve.get("iterations").and_then(Json::as_u64).unwrap() > 0,
        "the solve was genuinely in flight when cancelled"
    );

    // The freed worker served the queued request to completion.
    let next = by_id(&responses, "next");
    assert_eq!(field(next, "status"), "ok");
    assert_eq!(field(next, "termination"), "solved");

    // The whole exchange ends promptly after the cancel (~500 ms of pacing
    // plus the n=10 solve) — nothing waited on a budget that never runs out.
    assert!(
        elapsed < Duration::from_secs(30),
        "cancellation must actually stop the unbounded solve (took {elapsed:?})"
    );
}

/// Warm starts ride the same protocol: a known Costas array injected as the
/// start candidate solves with zero search iterations.
#[test]
fn warm_start_through_the_protocol_is_adopted() {
    let service = Service::start(ServiceConfig::default());
    let (tx, rx) = mpsc::channel();
    service.submit(
        r#"{"id":"ws","problem":"costas","n":4,"warm_start":[2,4,3,1]}"#,
        &tx,
    );
    let line = rx.recv_timeout(Duration::from_secs(30)).expect("answered");
    let doc = Json::parse(&line).expect("valid JSON");
    assert_eq!(field(&doc, "termination"), "solved");
    assert_eq!(doc.get("iterations").and_then(Json::as_u64), Some(0));
    assert_eq!(
        doc.get("stats")
            .and_then(|s| s.get("injections_adopted"))
            .and_then(Json::as_u64),
        Some(1)
    );
}

/// The determinism contract: the same request with the same seed yields a
/// bit-identical outcome through the service path and the direct
/// `solve_registry` path (which is itself a `SolveRequest::run` wrapper).
#[test]
fn service_path_matches_direct_solve_registry_bit_for_bit() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        fanout_walks: 4,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let cases: &[(&str, usize, u64, u64)] = &[
        ("costas", 12, 2024, 500_000),
        ("n-queens", 30, 7, 500_000),
        ("langford", 8, 11, 500_000),
        ("all-interval", 10, 3, 500_000),
    ];
    for (i, (problem, n, seed, budget)) in cases.iter().enumerate() {
        service.submit(
            &format!(
                r#"{{"id":"c{i}","problem":"{problem}","n":{n},"seed":{seed},"budget":{budget}}}"#
            ),
            &tx,
        );
    }
    drop(tx);
    let responses: Vec<Json> = rx
        .iter()
        .map(|line| Json::parse(&line).expect("valid JSON"))
        .collect();
    assert_eq!(responses.len(), cases.len());

    for (i, (problem, n, seed, budget)) in cases.iter().enumerate() {
        let direct =
            baselines::solve_registry(problem, *n, *seed, &baselines::SolverBudget::moves(*budget))
                .expect("registered key");
        let served = by_id(&responses, &format!("c{i}"));
        assert_eq!(field(served, "status"), "ok", "{problem}");
        assert_eq!(
            field(served, "termination") == "solved",
            direct.solved,
            "{problem}: solved-ness must agree"
        );
        assert_eq!(
            served.get("iterations").and_then(Json::as_u64),
            Some(direct.moves),
            "{problem}: iteration counts must agree bit-for-bit"
        );
        assert_eq!(
            served.get("restarts").and_then(Json::as_u64),
            Some(direct.restarts),
            "{problem}: restart counts must agree"
        );
        let served_solution = served.get("solution").and_then(Json::as_array).map(|a| {
            a.iter()
                .map(|v| v.as_u64().unwrap() as usize)
                .collect::<Vec<_>>()
        });
        assert_eq!(
            served_solution, direct.solution,
            "{problem}: same permutation"
        );
        assert_eq!(
            served.get("best_cost").and_then(Json::as_u64),
            Some(direct.best_cost),
            "{problem}: best cost must agree"
        );
    }
}

/// The TCP listener speaks the same protocol end to end (std::net only).
#[test]
fn tcp_mode_round_trips_requests() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let service = Service::start(ServiceConfig::default());
        let (stream, _) = listener.accept().expect("accept");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        serve_connection(&service, reader, &stream)
    });

    let mut client = TcpStream::connect(addr).expect("connect");
    writeln!(
        client,
        r#"{{"id":"t1","problem":"costas","n":10,"seed":5}}"#
    )
    .expect("send");
    writeln!(client, r#"{{"id":"t2","problem":"no-such-model","n":5}}"#).expect("send");
    client
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut responses = Vec::new();
    for line in BufReader::new(&client).lines() {
        responses.push(Json::parse(&line.expect("read line")).expect("valid JSON"));
    }
    assert_eq!(server.join().expect("server thread"), 2);
    assert_eq!(responses.len(), 2);
    let ok = by_id(&responses, "t1");
    assert_eq!(field(ok, "status"), "ok");
    assert_eq!(field(ok, "termination"), "solved");
    let rejected = by_id(&responses, "t2");
    assert_eq!(field(rejected, "status"), "rejected");
    assert_eq!(field(rejected, "reason"), "unknown-problem");
}

/// A deeply nested line is an ordinary parse reject, not a stack overflow,
/// and a line whose order would need terabytes, or is zero, or is an odd
/// number-partitioning order, is a typed `invalid-request` reject with
/// nothing allocated: the real binary answers each of them, answers the
/// request behind each, and exits cleanly at EOF.
#[test]
fn deeply_nested_line_is_rejected_and_the_next_request_answered() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_solverd"))
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn solverd");
    let mut stdin = child.stdin.take().expect("stdin");
    // 100 KB of `[`, under the 256 KiB line cap.
    writeln!(stdin, "{}", "[".repeat(100_000)).expect("send deep line");
    for line in [
        r#"{"id":"after","problem":"costas","n":8,"seed":1}"#,
        r#"{"id":"big","problem":"costas","n":2000000,"budget":10,"seed":1}"#,
        r#"{"id":"after-big","problem":"costas","n":8,"seed":2}"#,
        r#"{"id":"zero","problem":"costas","n":0,"budget":10,"seed":1}"#,
        r#"{"id":"after-zero","problem":"costas","n":8,"seed":3}"#,
        r#"{"id":"odd","problem":"number-partitioning","n":7,"budget":10,"seed":1}"#,
        r#"{"id":"after-odd","problem":"costas","n":8,"seed":4}"#,
    ] {
        writeln!(stdin, "{line}").expect("send");
    }
    drop(stdin);
    let output = child.wait_with_output().expect("solverd exits");
    assert!(output.status.success(), "solverd died: {:?}", output.status);

    let responses = parse_lines(&output.stdout);
    assert_eq!(responses.len(), 8, "{responses:?}");
    let reject = by_id(&responses, "");
    assert_eq!(field(reject, "status"), "error");
    assert_eq!(field(reject, "reason"), "parse");
    assert!(
        field(reject, "detail").contains("nesting deeper"),
        "{reject:?}"
    );
    for (id, detail) in [
        ("big", "outside 1..="),
        ("zero", "outside 1..="),
        ("odd", "not a multiple of 2"),
    ] {
        let reject = by_id(&responses, id);
        assert_eq!(field(reject, "status"), "rejected", "{reject:?}");
        assert_eq!(field(reject, "reason"), "invalid-request", "{reject:?}");
        assert!(field(reject, "detail").contains(detail), "{reject:?}");
    }
    for id in ["after", "after-big", "after-zero", "after-odd"] {
        let ok = by_id(&responses, id);
        assert_eq!(field(ok, "status"), "ok", "{ok:?}");
        assert_eq!(field(ok, "termination"), "solved", "{ok:?}");
    }
}
