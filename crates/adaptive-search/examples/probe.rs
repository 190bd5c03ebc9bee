//! Diagnostic probe: convergence of the engine under different model configurations.
use adaptive_search::*;

fn run(label: &str, n: usize, model: CostasModelConfig, seed: u64, cap: u64) {
    let cfg = AsConfig::builder().max_iterations(cap).build();
    let problem = CostasProblem::with_config(n, model);
    let mut engine = Engine::new(problem, cfg, seed);
    let start = std::time::Instant::now();
    let r = engine.solve();
    println!(
        "{label:<18} n={n:<3} seed={seed:<2} solved={:<5} iters={:<9} lmin={:<9} esc={:<7} t={:.3?}",
        r.is_solved(), r.stats.iterations, r.stats.local_minima,
        r.stats.custom_reset_escapes, start.elapsed()
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "quick".into());
    match which.as_str() {
        "quick" => {
            for n in [12usize, 14, 16] {
                for seed in 1..=3u64 {
                    run(
                        "default",
                        n,
                        CostasModelConfig::optimized(),
                        seed,
                        5_000_000,
                    );
                }
            }
        }
        "seventeen" => {
            for seed in 1..=3u64 {
                run(
                    "default",
                    17,
                    CostasModelConfig::optimized(),
                    seed,
                    50_000_000,
                );
            }
        }
        "compare" => {
            for n in [14usize, 16] {
                for seed in 1..=2u64 {
                    run(
                        "default",
                        n,
                        CostasModelConfig::optimized(),
                        seed,
                        5_000_000,
                    );
                    run(
                        "no-custom-reset",
                        n,
                        CostasModelConfig {
                            dedicated_reset: false,
                            ..Default::default()
                        },
                        seed,
                        5_000_000,
                    );
                    run(
                        "basic-model",
                        n,
                        CostasModelConfig::basic(),
                        seed,
                        5_000_000,
                    );
                }
                println!();
            }
        }
        _ => eprintln!("unknown probe mode"),
    }
}
