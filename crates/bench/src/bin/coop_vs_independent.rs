//! **Cooperative vs. independent multi-walk** — the first beyond-the-paper scaling
//! comparison.
//!
//! Protocol: for each simulated core count (4, 16, 64), run `runs` *independent*
//! multi-walk jobs (the paper's §V scheme, exact virtual-cluster simulation) and
//! `runs` *cooperative* jobs (elite exchange every `c` iterations + coordinated
//! restarts) from the **same per-run master seeds**, and report the ratio of mean
//! winning iteration counts — the speed-up (>1) or slow-down (<1) bought by
//! cooperation.
//!
//! Expected shape (see the `multiwalk` crate docs): on small instances cooperation
//! hovers at or *below* 1× — the independent min-of-K effect already collapses the
//! runtime distribution and exchange merely correlates the walks — while larger
//! instances and higher core counts benefit from sharing.  This harness exists to
//! keep that trade-off measured rather than assumed.
//!
//! Output: the comparison table on stdout, a CSV under `target/experiments/`, and a
//! `coop_vs_independent/v5` JSON document (`BENCH_coop_vs_independent.json`, path
//! overridable with `COSTAS_BENCH_JSON`) holding only the per-core-count cells.
//! `COSTAS_COOP_INTERVAL` overrides the exchange interval.  Speed and real-core
//! speed-up are measured by `perfbench/`, not here.

use bench::protocol::{cooperative_cell, parallel_cell, CellMode, CellSummary, CoopCellSummary};
use bench::schema::{validate_coop_vs_independent, COOP_VS_INDEPENDENT_SCHEMA};
use bench::{banner, write_bench_json, write_csv, HarnessOptions};
use multiwalk::{CoopConfig, PlatformProfile, VirtualCluster, WalkSpec};
use runtime_stats::table::fmt_seconds;
use runtime_stats::{Json, TextTable};

const CORE_COUNTS: [usize; 3] = [4, 16, 64];

fn main() {
    let options = HarnessOptions::from_env();
    banner(
        "Cooperative vs. independent multi-walk (virtual cluster)",
        "mean winning iterations per core count; speedup = independent / cooperative",
        &options,
    );
    // Order 14 even in quick mode: smaller instances solve before the first
    // exchange round, which would make the comparison vacuous.
    let n = options.sizes(&[14], &[16])[0];
    let runs = options.runs(6, 50);
    let exchange_interval = bench::BenchConfig::get().coop_interval;
    let spec = WalkSpec::costas(n);
    let coop = CoopConfig::every(exchange_interval);
    let cluster = VirtualCluster::new(PlatformProfile::local());

    let mut table = TextTable::new(vec![
        "cores",
        "indep iters",
        "coop iters",
        "speedup",
        "indep s",
        "coop s",
        "coop solved",
        "adoptions",
    ]);
    let mut cells: Vec<Json> = Vec::new();
    for cores in CORE_COUNTS {
        let seed = bench::protocol::cell_seed(options.master_seed, n, cores, 0);
        let independent: CellSummary =
            parallel_cell(&cluster, &spec, cores, runs, seed, CellMode::Exact, &[]);
        let cooperative: CoopCellSummary =
            cooperative_cell(&cluster, &spec, coop, cores, runs, seed);
        let speedup = if cooperative.iterations.mean > 0.0 {
            independent.iterations.mean / cooperative.iterations.mean
        } else {
            f64::INFINITY
        };
        table.add_row(vec![
            cores.to_string(),
            format!("{:.0}", independent.iterations.mean),
            format!("{:.0}", cooperative.iterations.mean),
            format!("{speedup:.2}x"),
            fmt_seconds(independent.seconds.mean),
            fmt_seconds(cooperative.seconds.mean),
            format!("{}/{runs}", cooperative.solved),
            cooperative.adoptions.to_string(),
        ]);
        cells.push(Json::object(vec![
            ("cores", Json::from(cores)),
            (
                "independent",
                Json::object(vec![
                    ("mean_iterations", Json::from(independent.iterations.mean)),
                    (
                        "median_iterations",
                        Json::from(independent.iterations.median),
                    ),
                    ("mean_seconds", Json::from(independent.seconds.mean)),
                ]),
            ),
            (
                "cooperative",
                Json::object(vec![
                    ("mean_iterations", Json::from(cooperative.iterations.mean)),
                    (
                        "median_iterations",
                        Json::from(cooperative.iterations.median),
                    ),
                    ("mean_seconds", Json::from(cooperative.seconds.mean)),
                    ("solved", Json::from(cooperative.solved)),
                    ("adoptions", Json::from(cooperative.adoptions)),
                    (
                        "coordinated_restarts",
                        Json::from(cooperative.coordinated_restarts),
                    ),
                ]),
            ),
            ("speedup_iterations", Json::from(speedup)),
        ]));
    }

    println!("\n{}", table.render());
    let csv_path = write_csv("coop_vs_independent.csv", &table.to_csv());
    println!("CSV written to {}", csv_path.display());

    let doc = Json::object(vec![
        ("schema", Json::from(COOP_VS_INDEPENDENT_SCHEMA)),
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("master_seed", Json::from(options.master_seed)),
        ("exchange_interval", Json::from(exchange_interval)),
        ("core_counts", Json::from(CORE_COUNTS.to_vec())),
        ("cells", Json::Array(cells)),
    ]);
    validate_coop_vs_independent(&doc).expect("emitted document validates");
    let json_path = write_bench_json("BENCH_coop_vs_independent.json", &doc);
    println!("JSON written to {}", json_path.display());
    println!(
        "\nShape check: on small n the speedup hovers at or below 1.00x (independent\n\
         min-of-K already wins there); cooperation pays off as n and core counts grow."
    );
}
