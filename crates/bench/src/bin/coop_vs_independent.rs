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
//! machine-readable `BENCH_*.json` artefact (path overridable with
//! `COSTAS_BENCH_JSON`) that the CI `bench-smoke` job uploads so the perf trajectory
//! accumulates.  `COSTAS_COOP_INTERVAL` overrides the exchange interval.
//!
//! Schema v2 added a `probe_throughput` section — engine steps/sec per model
//! (see the `probe_throughput` harness) — so the single committed
//! `BENCH_dev.json` tracks both the scaling shape and the raw probe-path speed.
//! Schema v3 keeps every v2 field byte-compatible (steps/sec stays directly
//! comparable across artefacts).  Schema v4 changes no field either: the
//! throughput section is now driven by the problem registry
//! ([`adaptive_search::problems`]), so it covers all six registered workloads —
//! the four seed models plus `langford` and `number-partitioning` — and grows
//! automatically with future registrations.  Still within v4 (additive, no field
//! changed), the document now also carries a `scaling_curve` rider: the
//! real-hardware strong-scaling section (`scaling_curve/v1`, see
//! `bench::scaling` and the `scaling_curve` harness) measured on actual OS
//! threads, so the one committed artefact tracks simulated-core scaling shape,
//! probe-path speed *and* real-thread speedup together.  The `solverd_load`
//! rider (`solverd_load/v1`, see `bench::loadgen` and the `load_gen` harness)
//! extends the same document with serving-side numbers — requests/sec
//! sustained by the `solverd` service and submit-to-response latency
//! percentiles under an open-loop request stream.  The
//! `probe_throughput_large_n` rider (still additive within v4) carries the
//! multi-word Costas cells — per order past the single-word mask boundary
//! (n = 34, 40), one cell on the width-generic probe kernel and one on the
//! same-build generic histogram baseline — so the committed artefact records
//! the kernel speedup as a same-machine ratio; throughput entries everywhere
//! now also carry an `accelerated` flag.  The `campaign` rider (`campaign/v1`,
//! see `multiwalk::Campaign` and the `campaign` harness) — still additive
//! within v4 — records a short deterministic checkpoint/resume campaign:
//! solutions found, distinct D₄ symmetry classes logged, checkpoints written.

use bench::protocol::{cooperative_cell, parallel_cell, CellMode, CellSummary, CoopCellSummary};
use bench::scaling::{measure_model, scaling_section, ScalingOptions};
use bench::throughput::{large_n_models, standard_models};
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

    // Schema v2+ rider: probe throughput (engine steps/sec) for every registered
    // model, so the perf trajectory of the probe path accumulates alongside the
    // scaling data.
    // Deliberately not tied to COSTAS_RUNS: the cell repetition count and the step
    // count needed for a stable steps/sec reading are unrelated quantities.
    let throughput_steps: u64 = if options.full { 200_000 } else { 20_000 };
    let throughput = standard_models(throughput_steps, options.master_seed);
    let mut throughput_table = TextTable::new(vec!["model", "n", "steps/sec"]);
    for s in &throughput {
        throughput_table.add_row(vec![
            s.model.to_string(),
            s.size.to_string(),
            format!("{:.0}", s.steps_per_sec),
        ]);
    }
    println!("Probe throughput ({throughput_steps} engine steps per model):");
    println!("\n{}", throughput_table.render());

    // probe_throughput_large_n rider (additive within v4): the multi-word
    // Costas cells, each order measured on the kernel and on the same-build
    // generic baseline so the speedup is a same-machine ratio.
    let large_n = large_n_models(throughput_steps, options.master_seed);
    println!("Large-n probe throughput (multi-word kernel vs generic baseline):");
    for pair in large_n.chunks_exact(2) {
        println!(
            "  {:>20} n={:<3} kernel {:>9.0} steps/s vs generic {:>9.0} steps/s = {:.2}x",
            pair[0].model,
            pair[0].size,
            pair[0].steps_per_sec,
            pair[1].steps_per_sec,
            pair[0].steps_per_sec / pair[1].steps_per_sec.max(f64::MIN_POSITIVE),
        );
        if let (Some(k), Some(g)) = (pair[0].probe_ns, pair[1].probe_ns) {
            println!(
                "  {:>20} n={:<3} probe  {:>9.0} ns      vs generic {:>9.0} ns      = {:.2}x",
                "",
                pair[0].size,
                k,
                g,
                g / k.max(f64::MIN_POSITIVE),
            );
        }
    }

    // scaling_curve/v1 rider: the real-hardware strong-scaling section (OS
    // threads; Costas + N-Queens in quick mode, the whole registry in full).
    let scaling_opts = ScalingOptions::from_env(&options);
    let scaling_models: Vec<&str> = if options.full {
        adaptive_search::problems::keys().collect()
    } else {
        vec!["costas", "n-queens"]
    };
    println!(
        "Strong scaling on {} hardware thread(s), measured counts {:?}:",
        bench::scaling::hardware_threads(),
        scaling_opts.thread_counts
    );
    let curves: Vec<_> = scaling_models
        .iter()
        .map(|key| measure_model(key, &scaling_opts, options.master_seed))
        .collect();
    for curve in &curves {
        let baseline = curve.cells.first().map_or(0.0, |c| c.steps_per_sec);
        for cell in &curve.cells {
            println!(
                "  {:>20} n={:<3} threads={:<2} {:>10.0} steps/s ({:.2}x)",
                curve.model,
                curve.bench_size,
                cell.threads,
                cell.steps_per_sec,
                cell.steps_per_sec / baseline.max(f64::MIN_POSITIVE),
            );
        }
    }

    // solverd_load/v1 rider: drive the solver service at the configured offered
    // rate and record requests/sec + latency percentiles alongside the rest of
    // the perf trajectory.
    let load_opts = bench::loadgen::LoadOptions::from_env();
    println!(
        "Serving load: {} requests at {} req/s against {}:",
        load_opts.requests,
        load_opts.target_rps,
        match &load_opts.remote_addr {
            Some(addr) => format!("remote solverd {addr}"),
            None => format!(
                "an in-process pool ({} workers, queue {})",
                load_opts.workers, load_opts.queue_capacity
            ),
        }
    );
    let load = bench::loadgen::run(&load_opts);
    println!(
        "  completed {}/{} (solved {}, overflow-rejected {}), {:.1} req/s, \
         latency p50 {:.2} ms / p90 {:.2} ms / p99 {:.2} ms",
        load.completed,
        load.offered,
        load.solved,
        load.rejected_overflow,
        load.requests_per_sec,
        load.latency_ms(0.50),
        load.latency_ms(0.90),
        load.latency_ms(0.99),
    );

    // campaign/v1 rider: a short checkpoint/resume campaign.  The section is a
    // pure function of (spec, master seed) — same numbers on every machine —
    // so the committed cell doubles as a cross-platform determinism sentinel.
    // The state directory is wiped first: a leftover checkpoint would make the
    // rider *resume* a previous run instead of measuring a fresh campaign.
    let campaign_dir = bench::experiments_dir().join("campaign_rider");
    std::fs::remove_dir_all(&campaign_dir).ok();
    let campaign_config = bench::BenchConfig::get();
    let mut campaign_spec =
        multiwalk::CampaignSpec::costas(campaign_config.campaign_n, campaign_dir);
    campaign_spec.walkers = campaign_config.campaign_walkers;
    campaign_spec.master_seed = options.master_seed;
    campaign_spec.rounds = campaign_config.campaign_rounds;
    campaign_spec.checkpoint_interval = campaign_config.campaign_interval;
    let (mut campaign, _) =
        multiwalk::Campaign::open(campaign_spec).expect("campaign rider opens fresh");
    campaign.run_to_completion().expect("campaign rider runs");
    println!(
        "Campaign rider: {} rounds, {} solutions, {} distinct symmetry classes, \
         {} checkpoints",
        campaign.rounds_done(),
        campaign.solutions_found(),
        campaign.classes().len(),
        campaign.checkpoints_written(),
    );

    let doc = Json::object(vec![
        ("schema", Json::from("coop_vs_independent/v4")),
        ("campaign", campaign.artifact_section()),
        (
            "scaling_curve",
            scaling_section(&curves, &scaling_opts, options.master_seed),
        ),
        ("solverd_load", load.to_json()),
        ("n", Json::from(n)),
        ("runs", Json::from(runs)),
        ("master_seed", Json::from(options.master_seed)),
        ("exchange_interval", Json::from(exchange_interval)),
        ("core_counts", Json::from(CORE_COUNTS.to_vec())),
        ("cells", Json::Array(cells)),
        ("probe_throughput_steps", Json::from(throughput_steps)),
        (
            "probe_throughput",
            Json::Array(throughput.iter().map(|s| s.to_json()).collect()),
        ),
        (
            "probe_throughput_large_n",
            Json::Array(large_n.iter().map(|s| s.to_json()).collect()),
        ),
    ]);
    bench::schema::validate_coop_vs_independent(&doc).expect("emitted document validates");
    let json_path = write_bench_json("BENCH_coop_vs_independent.json", &doc);
    println!("JSON written to {}", json_path.display());
    println!(
        "\nShape check: on small n the speedup hovers at or below 1.00x (independent\n\
         min-of-K already wins there); cooperation pays off as n and core counts grow."
    );
}
