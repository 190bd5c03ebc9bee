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
    model: CostasModelConfig,
    config: AsConfig,
}

fn variants() -> Vec<Variant> {
    let base = AsConfig::default();
    vec![
        Variant {
            name: "full-optimized",
            model: CostasModelConfig::optimized(),
            config: base.clone(),
        },
        Variant {
            name: "err-unit",
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
            model: CostasModelConfig {
                dedicated_reset: false,
                ..CostasModelConfig::optimized()
            },
            config: base.clone(),
        },
        Variant {
            name: "plateau-off",
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

    for &n in sizes {
        let mut reference_time = None;
        for variant in variants() {
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
            let reference = *reference_time.get_or_insert(t.mean);
            let slowdown = t.mean / reference.max(1e-12);
            let escape_rate = if resets > 0 {
                format!("{:.0}%", 100.0 * escapes as f64 / resets as f64)
            } else {
                "-".to_string()
            };
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
    println!(
        "\nShape check vs. the paper: the fully optimised model is the fastest; dropping the\n\
         dedicated reset costs the most (paper: ≈3.7×), dropping the Chang restriction or the\n\
         quadratic weighting costs tens of percent (paper: ≈30 % and ≈17 %)."
    );
}
