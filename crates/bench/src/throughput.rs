//! Engine probe-throughput measurement, shared by the `probe_throughput` harness
//! and the `BENCH_*.json` emitters.
//!
//! One measurement drives a single [`adaptive_search::Engine`] for a fixed number
//! of [`Engine::step`] calls and reports steps per second.  A step is culprit
//! selection plus the min-conflict probe of all `n − 1` candidate partners, so
//! steps/sec reflects both layers the incremental-evaluation work targets: the
//! read-only batched probe *and* the error-maintenance layer behind selection
//! (selection reads the model's maintained error vector instead of recomputing an
//! O(n·d_max) sweep).  Instances are sized so
//! the walk keeps probing (hard enough not to solve instantly); when a walk does
//! solve, the engine is restarted and measurement continues.

use std::hint::black_box;
use std::time::Instant;

use adaptive_search::problems;
use adaptive_search::{
    AsConfig, CostasModelConfig, CostasProblem, Engine, PermutationProblem, StepOutcome,
};
use costas::{ConflictTable, CostModel};
use runtime_stats::Json;
use xrand::{default_rng, random_permutation, RandExt};

/// Steps/sec measurement of one model.
#[derive(Debug, Clone)]
pub struct ThroughputSample {
    /// Model name (the problem's [`PermutationProblem::name`]).
    pub model: &'static str,
    /// Number of variables of the measured instance.
    pub size: usize,
    /// Whether the measured instance advertised an accelerated probe kernel
    /// ([`PermutationProblem::has_accelerated_probe`]).  Large-n cells come in
    /// pairs — kernel on and the same-build generic baseline — distinguished by
    /// this flag.
    pub accelerated: bool,
    /// Engine steps executed.
    pub steps: u64,
    /// Wall-clock seconds the steps took.
    pub seconds: f64,
    /// Engine steps per second (probe throughput proxy).
    pub steps_per_sec: f64,
    /// Walks solved (and restarted) during the measurement.
    pub solves: u64,
    /// Raw probe latency in ns — one batched `probe_partners` call on an
    /// equilibrium-walked table (the reference path when `accelerated` is
    /// false).  Only measured for large-n cells; engine steps/sec above is
    /// Amdahl-diluted by selection and apply, so this is the number the
    /// kernel-vs-generic speedup is read from.
    pub probe_ns: Option<f64>,
}

impl ThroughputSample {
    /// The sample as a JSON object for the `BENCH_*.json` artefacts.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("model", Json::from(self.model)),
            ("size", Json::from(self.size)),
            ("accelerated", Json::from(self.accelerated)),
            ("steps", Json::from(self.steps)),
            ("seconds", Json::from(self.seconds)),
            ("steps_per_sec", Json::from(self.steps_per_sec)),
            ("solves", Json::from(self.solves)),
        ];
        if let Some(ns) = self.probe_ns {
            fields.push(("probe_ns", Json::from(ns)));
        }
        Json::object(fields)
    }
}

/// Run `steps` engine iterations on `problem` and measure steps/sec.
pub fn engine_throughput<P: PermutationProblem>(
    problem: P,
    config: AsConfig,
    seed: u64,
    steps: u64,
) -> ThroughputSample {
    let model = problem.name();
    let size = problem.size();
    let accelerated = problem.has_accelerated_probe();
    let mut engine = Engine::new(problem, config, seed);
    let mut solves = 0u64;
    let start = Instant::now();
    for _ in 0..steps {
        if engine.step() == StepOutcome::Solved {
            solves += 1;
            engine.restart();
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    ThroughputSample {
        model,
        size,
        accelerated,
        steps,
        seconds,
        steps_per_sec: steps as f64 / seconds.max(f64::MIN_POSITIVE),
        solves,
        probe_ns: None,
    }
}

/// Raw Costas probe latency in ns: one batched probe of all partners on a
/// table walked to a low-cost region (so the occupancy structure matches what
/// the engine sees at equilibrium, not a random high-cost state).  With
/// `accelerated` the dispatched `probe_partners` kernel is timed; without it,
/// the pre-change generic path (`probe_partners_reference`) on the identical
/// state — the pair is the issue-8 speedup measurement.
fn costas_probe_latency_ns(size: usize, accelerated: bool, seed: u64, reps: u64) -> f64 {
    let mut rng = default_rng(seed);
    let mut perm = random_permutation(size, &mut rng);
    perm.iter_mut().for_each(|v| *v += 1);
    let mut table = ConflictTable::new(&perm, CostModel::optimized());
    for _ in 0..50 * size {
        let (i, j) = (rng.index(size), rng.index(size));
        if table.cost_after_swap(i, j) <= table.cost() {
            table.apply_swap(i, j);
        }
    }
    let reps = reps.clamp(1, 1_000_000) as u32;
    let mut out = Vec::with_capacity(size);
    let start = Instant::now();
    for _ in 0..reps {
        let m = rng.index(size);
        if accelerated {
            table.probe_partners(m, &mut out);
        } else {
            table.probe_partners_reference(m, &mut out);
        }
        black_box(out[0]);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(reps)
}

/// Measure every registered workload at its standard bench size (see
/// [`adaptive_search::problems::registry`]: Costas 18, N-Queens 100, All-Interval
/// 50, Magic Square 10×10, Langford L(2, 32), number partitioning 64), each under
/// its registry default configuration.
pub fn standard_models(steps: u64, seed: u64) -> Vec<ThroughputSample> {
    problems::registry()
        .iter()
        .map(|info| {
            engine_throughput(
                (info.build)(info.bench_size),
                (info.default_config)(info.bench_size),
                seed,
                steps,
            )
        })
        .collect()
}

/// Measure the large-n cells: every registry size past the single-word mask
/// boundary ([`problems::ProblemInfo::bench_large_sizes`] — today Costas at
/// n = 34 and 40), each as a **pair** of samples from the same build and seed:
/// the multi-word probe kernel, and the generic histogram baseline obtained by
/// disabling the kernel through the model configuration.  The pair is what
/// makes the committed artefact self-contained: the kernel-vs-generic speedup
/// can be read off two same-machine numbers instead of cross-artefact
/// comparison.  Each cell also carries `probe_ns`, the raw batched-probe
/// latency on an equilibrium state — engine steps/sec is Amdahl-diluted by
/// selection and apply, so the probe-level pair is where the kernel speedup
/// target is checked.
pub fn large_n_models(steps: u64, seed: u64) -> Vec<ThroughputSample> {
    let mut samples = Vec::new();
    for info in problems::registry() {
        for &size in info.bench_large_sizes {
            let mut kernel_cell =
                engine_throughput((info.build)(size), (info.default_config)(size), seed, steps);
            kernel_cell.probe_ns = Some(costas_probe_latency_ns(size, true, seed, steps));
            samples.push(kernel_cell);
            // The same-build generic baseline.  Only Costas has an accelerated
            // probe to disable today; a future model registering large bench
            // sizes must add its own baseline constructor here.
            assert_eq!(
                info.key, "costas",
                "no generic-baseline constructor registered for {}",
                info.key
            );
            let baseline = CostasProblem::with_config(
                size,
                CostasModelConfig {
                    accelerated_probe: false,
                    ..CostasModelConfig::default()
                },
            );
            let mut sample = engine_throughput(baseline, (info.default_config)(size), seed, steps);
            assert!(
                !sample.accelerated,
                "the baseline cell must run the generic probe path"
            );
            sample.probe_ns = Some(costas_probe_latency_ns(size, false, seed, steps));
            samples.push(sample);
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_search::CostasProblem;

    #[test]
    fn measures_every_registered_model() {
        let samples = standard_models(200, 7);
        assert_eq!(samples.len(), problems::registry().len());
        let names: Vec<&str> = samples.iter().map(|s| s.model).collect();
        let keys: Vec<&str> = problems::keys().collect();
        assert_eq!(names, keys, "registry order is the artefact order");
        for s in &samples {
            assert_eq!(s.steps, 200);
            assert!(s.steps_per_sec > 0.0, "{}", s.model);
            assert!(s.seconds > 0.0);
            assert!(
                s.size >= 18,
                "{}: bench instances must not be toys",
                s.model
            );
        }
    }

    #[test]
    fn sample_serialises_with_a_steps_per_sec_field() {
        let s = engine_throughput(CostasProblem::new(10), AsConfig::costas_defaults(10), 1, 50);
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"steps_per_sec\":"), "{rendered}");
        assert!(rendered.contains("\"model\":\"costas\""), "{rendered}");
        assert!(rendered.contains("\"accelerated\":true"), "{rendered}");
    }

    #[test]
    fn large_n_cells_come_in_kernel_and_baseline_pairs() {
        let samples = large_n_models(50, 11);
        let info = problems::find("costas").expect("registered");
        assert_eq!(samples.len(), 2 * info.bench_large_sizes.len());
        for pair in samples.chunks_exact(2) {
            assert_eq!(pair[0].model, "costas");
            assert_eq!(pair[0].size, pair[1].size);
            assert!(
                pair[0].size > 32,
                "large-n cells sit past the word boundary"
            );
            assert!(pair[0].accelerated, "first of each pair runs the kernel");
            assert!(!pair[1].accelerated, "second is the generic baseline");
            for s in pair {
                assert!(
                    s.probe_ns.is_some_and(|ns| ns > 0.0),
                    "large-n cells carry the raw probe latency"
                );
            }
        }
    }
}
