//! **§IV-B ablations** — the effect of each modelling/tuning decision the paper
//! quantifies in the text:
//!
//! * `ERR(d) = n² − d²` instead of `ERR(d) = 1`  (paper: ≈17 % faster);
//! * checking only the Chang half-triangle `d ≤ ⌊(n−1)/2⌋`  (paper: ≈30 % faster);
//! * the dedicated reset procedure instead of the generic percentage reset
//!   (paper: ≈3.7× faster, escaping the local minimum immediately in ≈32 % of resets);
//! * the plateau-following probability (§III-B1).
//!
//! Quick mode: n ∈ {13, 14, 15}, 20 runs per variant.  Full mode: n ∈ {16, 17},
//! 100 runs per variant.

use adaptive_search::{AsConfig, CostasModelConfig, CostasProblem, Engine};
use bench::{banner, write_csv, HarnessOptions};
use costas::{CostModel, ErrWeight, RowSpan};
use runtime_stats::{BatchStats, TextTable};
use xrand::SeedSequence;

struct Variant {
    name: &'static str,
    /// What §IV-B (or §III-B1) reports for this option, printed beside the
    /// measured ratios.
    paper: &'static str,
    model: CostasModelConfig,
    config: AsConfig,
}

fn variants() -> Vec<Variant> {
    let base = AsConfig::default();
    vec![
        Variant {
            name: "full-optimized",
            paper: "resets escape at once in ≈32 %",
            model: CostasModelConfig::optimized(),
            config: base.clone(),
        },
        Variant {
            name: "err-unit",
            paper: "the quadratic weighting makes the solver ≈17 % faster",
            model: CostasModelConfig {
                cost_model: CostModel {
                    weight: ErrWeight::Unit,
                    span: RowSpan::ChangHalf,
                },
                ..CostasModelConfig::optimized()
            },
            config: base.clone(),
        },
        Variant {
            name: "full-triangle",
            paper: "the Chang half-triangle makes the solver ≈30 % faster",
            model: CostasModelConfig {
                cost_model: CostModel {
                    weight: ErrWeight::Quadratic,
                    span: RowSpan::Full,
                },
                ..CostasModelConfig::optimized()
            },
            config: base.clone(),
        },
        Variant {
            name: "generic-reset",
            paper: "the dedicated reset makes the solver ≈3.7× faster",
            model: CostasModelConfig {
                dedicated_reset: false,
                ..CostasModelConfig::optimized()
            },
            config: base.clone(),
        },
        Variant {
            name: "plateau-off",
            paper: "no figure",
            model: CostasModelConfig::optimized(),
            config: AsConfig {
                plateau_probability: 0.0,
                ..base.clone()
            },
        },
    ]
}

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Ablations — §IV-B modelling options and §III-B tunings",
        "average solve time and iterations per variant; ratios vs the fully optimised model",
        &options,
    );
    let sizes = options.sizes(&[13, 14, 15], &[16, 17]);
    let runs = options.runs(20, 100);

    let mut table = TextTable::new(vec![
        "size",
        "variant",
        "avg time (s)",
        "avg iters",
        "x vs optimized",
        "escape rate",
    ]);
    let mut csv = TextTable::new(vec![
        "size",
        "variant",
        "avg_s",
        "avg_iters",
        "slowdown_vs_optimized",
        "escape_rate",
    ]);

    // Per variant and size: its time and iteration ratios to the optimised
    // model, and its reset escape rate (NaN where it makes no dedicated
    // resets).
    let mut measured: Vec<Vec<[f64; 3]>> = vec![Vec::new(); variants().len()];
    for &n in sizes {
        let mut reference = None;
        for (v, variant) in variants().into_iter().enumerate() {
            let seeds = SeedSequence::new(options.master_seed ^ (n as u64) << 16);
            let mut times = Vec::with_capacity(runs);
            let mut iters = Vec::with_capacity(runs);
            let mut escapes = 0u64;
            let mut resets = 0u64;
            for r in 0..runs {
                let problem = CostasProblem::with_config(n, variant.model);
                let mut engine = Engine::new(
                    problem,
                    variant.config.clone(),
                    seeds.child(r as u64).seed(),
                );
                let result = engine.solve();
                assert!(result.is_solved(), "{} n={n} must solve", variant.name);
                times.push(result.elapsed.as_secs_f64());
                iters.push(result.stats.iterations as f64);
                escapes += result.stats.custom_reset_escapes;
                resets += result.stats.custom_resets;
            }
            let t = BatchStats::from_values(&times);
            let i = BatchStats::from_values(&iters);
            let (reference_time, reference_iters) = *reference.get_or_insert((t.mean, i.mean));
            let slowdown = t.mean / reference_time.max(1e-12);
            let escapes = (resets > 0).then(|| 100.0 * escapes as f64 / resets as f64);
            let iterations = i.mean / reference_iters.max(1e-12);
            measured[v].push([slowdown, iterations, escapes.unwrap_or(f64::NAN)]);
            let escape_rate = escapes.map_or("-".to_string(), |e| format!("{e:.0}%"));
            table.add_row(vec![
                n.to_string(),
                variant.name.to_string(),
                format!("{:.4}", t.mean),
                format!("{:.0}", i.mean),
                format!("{slowdown:.2}"),
                escape_rate.clone(),
            ]);
            csv.add_row(vec![
                n.to_string(),
                variant.name.to_string(),
                format!("{:.6}", t.mean),
                format!("{:.1}", i.mean),
                format!("{slowdown:.3}"),
                escape_rate,
            ]);
            eprintln!("  [done] n = {n}, {}", variant.name);
        }
    }

    println!("\n{}", table.render());
    let path = write_csv("ablation_model_options.csv", &csv.to_csv());
    println!("CSV written to {}", path.display());
    // The measured ratios beside the paper's figures, without a verdict: a
    // few runs of a heavy-tailed runtime cannot settle one.
    let orders: Vec<String> = sizes.iter().map(|n| n.to_string()).collect();
    println!(
        "\nMeasured vs. the paper, {runs} runs per variant at n = {}: mean time and mean \
         iterations as ratios to full-optimized, one per order.",
        orders.join(", ")
    );
    let list = |rows: &[[f64; 3]], column: usize, digits: usize| -> String {
        let values: Vec<String> = rows
            .iter()
            .map(|r| format!("{:.digits$}", r[column]))
            .collect();
        values.join(", ")
    };
    let variants = variants();
    println!(
        "  {:<14} reset escape rate (%) {}  (paper: {})",
        variants[0].name,
        list(&measured[0], 2, 0),
        variants[0].paper
    );
    for (variant, rows) in variants.iter().zip(&measured).skip(1) {
        println!(
            "  {:<14} time {}; iterations {}  (paper: {})",
            variant.name,
            list(rows, 0, 2),
            list(rows, 1, 2),
            variant.paper
        );
    }
}
