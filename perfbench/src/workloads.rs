//! The five workloads: what each runs end to end, and its traced run.
//!
//! See `README.md` for why each workload exists and which layers it loads.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use adaptive_search::SolveRequest;
use runtime_stats::json::Json;
use solverd::Service;
use xrand::{fisher_yates, Rng64, SplitMix64};

use crate::calib;
use crate::report::{self, median, quantile, ratio, Outcome};
use crate::serving::{self, Stop};
use crate::trace;
use crate::work::{Done, Expect, Unit};

/// Order of the time-to-solution instances.
const TTS_ORDER: usize = 16;
/// Instances in the time-to-solution set: enough for ten beyond p90.
const TTS_INSTANCES: usize = 100;
/// Master seed of the fixed time-to-solution set.  `--seed` only shuffles
/// the order the set runs in, so every run solves the same instances and
/// only machine speed moves the times.
const TTS_SET_SEED: u64 = 0x00c0_57a5_2012;
/// Passes over the set per run; each instance reports the mean of its
/// passes, which damps the host noise in its time.
const TTS_PASSES: usize = 2;
/// Iteration budget per time-to-solution walk (a safety net: the set's
/// longest solve needs a small fraction of it).
const TTS_BUDGET: u64 = 50_000_000;
/// Repetitions of the timed set-up; the median is reported.
const SETUP_REPS: usize = 7;
/// Serving time between two readings of the reference service.
const SERVE_SLICE: Duration = Duration::from_millis(500);
/// Length of one reading of the reference service.
const REFERENCE_SPAN: Duration = Duration::from_millis(100);
/// Requests timed off the service by the serving split of a traced run.
const SPLIT_REQUESTS: usize = 2000;
/// Trajectory ledger, relative to the checkout root.
const LEDGER: &str = ".bench_state/perfbench-trajectories.tsv";

/// The arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The fixed Costas n = 16 set, solved [`TTS_PASSES`] times with
    /// `walks` walks.
    Tts { walks: usize },
    /// Fixed-budget single walks at a large order.
    Large { n: usize, budget: u64 },
    /// The small-request stream through an in-process `solverd`.
    Serve,
}

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [(&str, Kind); 5] = [
    ("costas-tts-1w", Kind::Tts { walks: 1 }),
    ("costas-tts-2w", Kind::Tts { walks: 2 }),
    (
        "costas-large-n40",
        Kind::Large {
            n: 40,
            budget: 3000,
        },
    ),
    ("costas-large-n80", Kind::Large { n: 80, budget: 500 }),
    ("solverd-small", Kind::Serve),
];

/// Workload names, as `--workload` takes them.
pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|&(name, _)| name)
}

/// Run workload `name`; `None` when no workload has that name.
pub fn run(name: &str, run: &Run) -> Option<Outcome> {
    let &(_, kind) = WORKLOADS.iter().find(|&&(n, _)| n == name)?;
    trace::register();
    let orders: Vec<usize> = match kind {
        Kind::Tts { .. } => vec![TTS_ORDER],
        Kind::Large { n, .. } => vec![n],
        Kind::Serve => vec![serving::SHAPES[0].1],
    };
    let mut outcome = match (kind, run.trace) {
        (Kind::Tts { walks }, false) => tts(walks, run),
        (Kind::Large { n, budget }, false) => large(n, budget, run),
        (Kind::Serve, false) => serve(run),
        (Kind::Tts { walks }, true) => {
            let units = tts_set(walks);
            traced(&units[..24], 8, run)
        }
        (Kind::Large { n, budget }, true) => {
            let units: Vec<Unit> = large_units(n, budget, run.seed).take(12).collect();
            traced(&units, 6, run)
        }
        (Kind::Serve, true) => {
            let units: Vec<Unit> = serving::stream(run.seed)
                .take(3000)
                .map(|r| r.unit())
                .collect();
            traced(&units, 300, run)
        }
    };
    outcome
        .detail
        .insert(0, ("workload".into(), Json::from(name)));
    outcome
        .detail
        .insert(1, ("fingerprint".into(), report::fingerprint(&orders)));
    Some(outcome)
}

/// The fixed time-to-solution set, `walks` walks per instance.
fn tts_set(walks: usize) -> Vec<Unit> {
    let mut rng = SplitMix64::new(TTS_SET_SEED);
    (0..TTS_INSTANCES)
        .map(|_| Unit {
            request: SolveRequest::new("costas", TTS_ORDER, rng.next_u64()).with_budget(TTS_BUDGET),
            walks,
            expect: Expect::Solved,
        })
        .collect()
}

/// Fixed-budget walks at order `n`, seeded from the run's seed.
fn large_units(n: usize, budget: u64, seed: u64) -> impl Iterator<Item = Unit> {
    let mut rng = SplitMix64::new(seed ^ ((n as u64) << 40));
    std::iter::from_fn(move || {
        Some(Unit {
            request: SolveRequest::new("costas", n, rng.next_u64()).with_budget(budget),
            walks: 1,
            expect: Expect::Budget,
        })
    })
}

/// Median over [`SETUP_REPS`] of the time `build` takes.
fn setup_s(mut build: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS).map(|_| time_s(&mut build)).collect();
    median(&times)
}

fn time_s(build: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    build();
    start.elapsed().as_secs_f64()
}

/// The end-to-end metrics every workload reports.
fn e2e(outcome: &mut Outcome, setup: f64, times_ms: &[f64], work_per_s: f64) {
    let m = &mut outcome.metrics;
    m.set("setup_s", setup, "s");
    m.set("median_ms", median(times_ms), "ms");
    m.set("p90_ms", quantile(times_ms, 0.9), "ms");
    m.set("work_per_s", work_per_s, "1/s");
    m.set(
        "ok_frac",
        ratio(
            (outcome.attempted - outcome.failed) as f64,
            outcome.attempted as f64,
        ),
        "ratio",
    );
}

/// Record `(key, trajectory)` of every replayable unit in the ledger and
/// turn a same-build mismatch into failures.
fn guard(outcome: &mut Outcome, units: &[Unit], done: &[Done]) {
    let entries: Vec<(String, String)> = units
        .iter()
        .zip(done)
        .filter(|(unit, _)| unit.walks == 1)
        .map(|(unit, d)| {
            let r = &unit.request;
            (
                format!("{}-{}/budget={}/seed={}", r.problem, r.n, r.budget, r.seed),
                d.trajectory.clone(),
            )
        })
        .collect();
    let digest = report::fnv1a(
        entries
            .iter()
            .map(|(k, t)| format!("{k}={t};"))
            .collect::<String>()
            .as_bytes(),
    );
    let check = report::check_ledger(Path::new(LEDGER), &report::build_id(), &entries);
    if check.nondeterministic > 0 {
        eprintln!(
            "perfbench: {} trajectories differ from this build's earlier runs",
            check.nondeterministic
        );
    }
    if check.changed > 0 {
        eprintln!("perfbench: {} trajectories differ from another build's runs: timings are not comparable", check.changed);
    }
    outcome.failed += check.nondeterministic;
    outcome.detail.push((
        "trajectories".into(),
        Json::object(vec![
            ("units", Json::from(entries.len())),
            ("digest", Json::from(format!("{digest:016x}"))),
            ("replayed", Json::UInt(check.replayed)),
            ("changed_since_other_build", Json::UInt(check.changed)),
            ("nondeterministic", Json::UInt(check.nondeterministic)),
        ]),
    ));
}

/// Solve `units` in order until they are done or `limit` passes, then
/// re-verify, guard trajectories and fill in the metrics.
///
/// Set-up — building the engines of `setup_batch`, the construction work
/// the request and runner layers do before searching — is timed once before
/// every unit, so its median spans the same machine conditions as the units.
/// Host speed is read between units, and every time is scaled by the mean
/// of the readings just before and just after it (see [`calib`]); the raw
/// figures go to the detail line.  Units with the same request (passes over
/// one set) are reported as one, by their mean time.
fn costas_e2e(
    units: impl IntoIterator<Item = Unit>,
    limit: Option<Duration>,
    setup_batch: &[Unit],
) -> Outcome {
    let mut build = || {
        let engines: usize = setup_batch.iter().map(Unit::build_engines).sum();
        std::hint::black_box(engines);
    };
    let start = Instant::now();
    let (mut ran, mut done, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut speed: Vec<f64> = Vec::new();
    for unit in units {
        if limit.is_some_and(|l| start.elapsed() >= l) {
            break;
        }
        if speed.is_empty() {
            speed.push(calib::reading(unit.walks));
        }
        setup.push(time_s(&mut build));
        done.push(unit.run(false));
        speed.push(calib::reading(unit.walks));
        ran.push(unit);
    }
    let scale: Vec<f64> = speed
        .windows(2)
        .map(|k| 2.0 * calib::REFERENCE_NS / (k[0] + k[1]))
        .collect();
    let mut outcome = Outcome::default();
    for d in &done {
        outcome.record(d.ok);
    }
    // Per request: (raw ms, normalised ms, raw rate, normalised rate), summed
    // over its passes, and the pass count.
    let mut per_request: BTreeMap<u64, ([f64; 4], f64)> = BTreeMap::new();
    for ((unit, d), s) in ran.iter().zip(&done).zip(&scale) {
        let ms = d.wall.as_secs_f64() * 1e3;
        let rate = d.stats.iterations as f64 / d.wall.as_secs_f64();
        let (sums, count) = per_request.entry(unit.request.seed).or_default();
        for (sum, v) in sums.iter_mut().zip([ms, ms * s, rate, rate / s]) {
            *sum += v;
        }
        *count += 1.0;
    }
    let column =
        |i: usize| -> Vec<f64> { per_request.values().map(|(sums, n)| sums[i] / n).collect() };
    let norm_setup: Vec<f64> = setup.iter().zip(&scale).map(|(t, s)| t * s).collect();
    e2e(
        &mut outcome,
        median(&norm_setup),
        &column(1),
        median(&column(3)),
    );
    let raw_ms = column(0);
    outcome.detail.push((
        "raw".into(),
        Json::object(vec![
            ("setup_s", Json::Float(median(&setup))),
            ("median_ms", Json::Float(median(&raw_ms))),
            ("p90_ms", Json::Float(quantile(&raw_ms, 0.9))),
            ("work_per_s", Json::Float(median(&column(2)))),
            ("host_reading_ns", Json::Float(median(&speed))),
        ]),
    ));
    guard(&mut outcome, &ran, &done);
    outcome
}

/// A short untimed solve so code and caches are warm before timing.
fn warm_up(n: usize) {
    let warm = Unit {
        request: SolveRequest::new("costas", n, 1).with_budget(200),
        walks: 1,
        expect: Expect::Budget,
    };
    std::hint::black_box(warm.run(false));
}

fn tts(walks: usize, run: &Run) -> Outcome {
    let set = tts_set(walks);
    let mut rng = SplitMix64::new(run.seed);
    let mut units = Vec::new();
    for _ in 0..TTS_PASSES {
        let mut pass = set.clone();
        fisher_yates(&mut pass, &mut rng);
        units.extend(pass);
    }
    warm_up(TTS_ORDER);
    costas_e2e(units, None, &set[..32])
}

fn large(n: usize, budget: u64, run: &Run) -> Outcome {
    let setup_batch: Vec<Unit> = large_units(n, budget, run.seed).take(16).collect();
    warm_up(n);
    let limit = Duration::from_secs_f64(run.seconds);
    costas_e2e(large_units(n, budget, run.seed), Some(limit), &setup_batch)
}

fn serve(run: &Run) -> Outcome {
    let config = serving::service_config();
    // Set-up: start the service and get one answer per worker, then stop it.
    let setup = setup_s(|| {
        let service = Service::start(config.clone());
        let served = serving::closed_loop(
            &service,
            &mut serving::stream(run.seed ^ 1),
            Stop::Count(config.workers),
        );
        assert_eq!(
            served.ok_count(),
            config.workers,
            "set-up requests must be answered"
        );
    });
    let service = Service::start(config.clone());
    let reference = calib::ReferenceService::start(config.workers);
    serving::closed_loop(
        &service,
        &mut serving::stream(run.seed ^ 2),
        Stop::After(Duration::from_millis(300)),
    );
    // Serve in slices and read the reference service between them; each
    // slice's times are scaled by the mean of the readings around it.
    let reading = || reference.reading(REFERENCE_SPAN, serving::WINDOW);
    let mut stream = serving::stream(run.seed);
    let mut readings = vec![reading()];
    let mut slices = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        slices.push(serving::closed_loop(
            &service,
            &mut stream,
            Stop::After(SERVE_SLICE),
        ));
        readings.push(reading());
    }
    drop(service);
    drop(reference);
    let mut outcome = Outcome::default();
    let (mut raw_ms, mut norm_ms) = (Vec::new(), Vec::new());
    let (mut ok, mut raw_s, mut norm_s) = (0, 0.0, 0.0);
    for (served, around) in slices.iter().zip(readings.windows(2)) {
        let scale = 2.0 * calib::SERVING_REFERENCE_US / (around[0] + around[1]);
        for (&us, &verified) in served.latency_us.iter().zip(&served.verified) {
            outcome.record(verified);
            let ms = if verified { us / 1e3 } else { f64::INFINITY };
            raw_ms.push(ms);
            norm_ms.push(ms * scale);
        }
        ok += served.ok_count();
        raw_s += served.elapsed.as_secs_f64();
        norm_s += served.elapsed.as_secs_f64() * scale;
    }
    e2e(&mut outcome, setup, &norm_ms, ok as f64 / norm_s);
    outcome.detail.push((
        "raw".into(),
        Json::object(vec![
            ("median_ms", Json::Float(median(&raw_ms))),
            ("p90_ms", Json::Float(quantile(&raw_ms, 0.9))),
            ("work_per_s", Json::Float(ok as f64 / raw_s)),
            ("reference_us", Json::Float(median(&readings))),
        ]),
    ));
    outcome
}

/// Sums over units of one pass.
#[derive(Debug, Default)]
struct PassSums {
    iterations: u64,
    moves: u64,
    engine_s: f64,
    costas_engine_s: f64,
    costas_resets: u64,
    costas_escapes: u64,
}

impl PassSums {
    fn of(units: &[Unit], done: &[Done]) -> Self {
        let mut s = PassSums::default();
        for (unit, d) in units.iter().zip(done) {
            s.iterations += d.stats.iterations;
            s.moves += d.stats.improving_moves + d.stats.plateau_moves;
            s.engine_s += d.engine.as_secs_f64();
            if unit.request.problem == "costas" {
                s.costas_engine_s += d.engine.as_secs_f64();
                s.costas_resets += d.stats.custom_resets;
                s.costas_escapes += d.stats.custom_reset_escapes;
            }
        }
        s
    }

    fn iters_per_s(&self) -> f64 {
        self.iterations as f64 / self.engine_s
    }
}

/// The traced run: the workload's own `units` untraced and then traced
/// (engine and model split), its first `race` units on two walks
/// (multi-walk split), and the serving split on the small-request stream.
fn traced(units: &[Unit], race: usize, run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    warm_up(units[0].request.n);
    // Alternate untraced and traced runs so machine drift hits both alike.
    trace::take_tallies();
    let (plain, traced): (Vec<Done>, Vec<Done>) =
        units.iter().map(|u| (u.run(false), u.run(true))).unzip();
    let tallies = trace::take_tallies();
    for ((unit, p), t) in units.iter().zip(&plain).zip(&traced) {
        // One walk replays exactly: a traced walk that strays from its
        // untraced twin means the wrapper changed the program.
        let faithful = unit.walks > 1 || p.trajectory == t.trajectory;
        outcome.record(p.ok && t.ok && faithful);
    }
    let p = PassSums::of(units, &plain);
    let s = PassSums::of(units, &traced);
    let mut all = trace::Tally::default();
    for tally in tallies.values() {
        all.add(tally);
    }
    let costas = tallies.get("costas").copied().unwrap_or_default();
    let costas_ns = s.costas_engine_s * 1e9;
    let m = &mut outcome.metrics;
    m.set(
        "costas.probe_ns",
        ratio(costas.probe_ns as f64, costas.probe_calls as f64),
        "ns",
    );
    m.set(
        "costas.probe_share",
        ratio(costas.probe_ns as f64, costas_ns),
        "ratio",
    );
    m.set(
        "costas.apply_ns",
        ratio(costas.apply_ns as f64, costas.apply_calls as f64),
        "ns",
    );
    m.set(
        "costas.apply_share",
        ratio(costas.apply_ns as f64, costas_ns),
        "ratio",
    );
    m.set(
        "costas_model.reset_ns",
        ratio(costas.reset_ns as f64, costas.reset_calls as f64),
        "ns",
    );
    m.set(
        "costas_model.reset_share",
        ratio(costas.reset_ns as f64, costas_ns),
        "ratio",
    );
    m.set(
        "costas_model.reset_escape_ratio",
        ratio(s.costas_escapes as f64, s.costas_resets as f64),
        "ratio",
    );
    m.set(
        "engine.self_share",
        1.0 - ratio(all.child_ns() as f64, s.engine_s * 1e9),
        "ratio",
    );
    m.set(
        "engine.cost_calls_per_step",
        ratio(all.cost_calls as f64, s.iterations as f64),
        "count",
    );
    m.set("engine.iterations", s.iterations as f64, "count");
    m.set(
        "engine.move_ratio",
        ratio(s.moves as f64, s.iterations as f64),
        "ratio",
    );
    m.set(
        "tracing.overhead",
        p.iters_per_s() / s.iters_per_s() - 1.0,
        "ratio",
    );

    let racing: Vec<Unit> = units[..race.min(units.len())]
        .iter()
        .map(|u| Unit {
            walks: 2,
            ..u.clone()
        })
        .collect();
    let raced: Vec<Done> = racing.iter().map(|u| u.run(false)).collect();
    for d in &raced {
        outcome.record(d.ok);
    }
    let overhead_ms: Vec<f64> = raced
        .iter()
        .map(|d| d.runner_overhead.as_secs_f64() * 1e3)
        .collect();
    let raced_iters: u64 = raced.iter().map(|d| d.stats.iterations).sum();
    let raced_wall: f64 = raced.iter().map(|d| d.wall.as_secs_f64()).sum();
    let m = &mut outcome.metrics;
    m.set("multiwalk.overhead_ms", median(&overhead_ms), "ms");
    m.set(
        "multiwalk.iters_per_s",
        raced_iters as f64 / raced_wall,
        "1/s",
    );

    let split = serving::split(run.seed, SPLIT_REQUESTS);
    outcome.attempted += split.attempted;
    outcome.failed += split.failed;
    let m = &mut outcome.metrics;
    m.set("proto.parse_us", median(&split.parse_us), "us");
    m.set("proto.render_us", median(&split.render_us), "us");
    m.set("request.solve_us", median(&split.solve_us), "us");
    m.set("service.handoff_us", median(&split.handoff_us), "us");
    outcome
}
