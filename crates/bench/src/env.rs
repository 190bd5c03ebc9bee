//! Typed, parse-once configuration for every `COSTAS_*` environment knob.
//!
//! Before this module each harness read its own slice of the environment with
//! `std::env::var(...).ok().and_then(|v| v.parse().ok())` — which meant a typo
//! (`COSTAS_THREAD=8`, `COSTAS_RUNS=ten`) silently fell back to the default
//! and the sweep quietly measured the wrong thing.  [`BenchConfig`] is the one
//! place the environment is read:
//!
//! * every knob is parsed once into a typed field;
//! * a `COSTAS_*` variable this version doesn't know is a **warning** (likely
//!   a typo or a knob from a different version);
//! * a value that fails to parse is a **warning** naming the variable, the
//!   offending value and the default that was used instead.
//!
//! Warnings are collected on the config (testable via
//! [`BenchConfig::from_vars`]) and printed to stderr exactly once by
//! [`BenchConfig::get`], the process-wide accessor the harness binaries use.
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `COSTAS_FULL` | `full` | paper-sized experiments (anything but `0`) |
//! | `COSTAS_RUNS` | `runs_override` | repetition count override |
//! | `COSTAS_SEED` | `master_seed` | master seed |
//! | `COSTAS_BENCH_JSON` | `bench_json` | artefact destination override |
//! | `COSTAS_COOP_INTERVAL` | `coop_interval` | cooperative exchange interval |
//! | `COSTAS_SOLVERD_ADDR` | `solverd_addr` | drive a remote solverd over TCP |
//! | `COSTAS_LOAD_RPS` | `load_rps` | load_gen target request rate |
//! | `COSTAS_LOAD_REQUESTS` | `load_requests` | load_gen request count |
//! | `COSTAS_LOAD_WORKERS` | `load_workers` | load_gen in-process pool size |
//! | `COSTAS_LOAD_QUEUE` | `load_queue` | load_gen admission-queue capacity |
//! | `COSTAS_LOAD_RETRIES` | `load_retries` | load_gen retry cap on queue-full rejects |
//! | `COSTAS_LOAD_RETRY_BACKOFF_MS` | `load_retry_backoff_ms` | base backoff of those retries |
//! | `COSTAS_FAULT_SEED` | `fault_seed` | seed a chaos fault plan into the load run |
//! | `COSTAS_CAMPAIGN_N` | `campaign_n` | campaign instance order |
//! | `COSTAS_CAMPAIGN_WALKERS` | `campaign_walkers` | campaign walker count |
//! | `COSTAS_CAMPAIGN_ROUNDS` | `campaign_rounds` | campaign round budget |
//! | `COSTAS_CAMPAIGN_INTERVAL` | `campaign_interval` | steps per walker per round |
//! | `COSTAS_CAMPAIGN_DIR` | `campaign_dir` | campaign checkpoint/log directory |
//! | `COSTAS_CAMPAIGN_HALT_AFTER` | `campaign_halt_after` | simulate a crash after this round |

use std::path::PathBuf;
use std::sync::OnceLock;

/// Default master seed (spells "2012 Costas").
pub const DEFAULT_MASTER_SEED: u64 = 0x0020_12C0_57A5;

/// Every `COSTAS_*` knob, parsed once.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// `COSTAS_FULL`: run paper-sized experiments.
    pub full: bool,
    /// `COSTAS_RUNS`: repetition-count override.
    pub runs_override: Option<usize>,
    /// `COSTAS_SEED`: master seed.
    pub master_seed: u64,
    /// `COSTAS_BENCH_JSON`: artefact destination override.
    pub bench_json: Option<PathBuf>,
    /// `COSTAS_COOP_INTERVAL`: cooperative exchange interval.
    pub coop_interval: u64,
    /// `COSTAS_SOLVERD_ADDR`: when set, `load_gen` drives this TCP endpoint
    /// instead of an in-process service.
    pub solverd_addr: Option<String>,
    /// `COSTAS_LOAD_RPS`: `load_gen` target offered rate (requests/second).
    pub load_rps: f64,
    /// `COSTAS_LOAD_REQUESTS`: `load_gen` total request count.
    pub load_requests: usize,
    /// `COSTAS_LOAD_WORKERS`: worker-pool size of `load_gen`'s in-process service.
    pub load_workers: usize,
    /// `COSTAS_LOAD_QUEUE`: admission-queue capacity of that service.
    pub load_queue: usize,
    /// `COSTAS_LOAD_RETRIES`: how many times `load_gen` re-offers a request
    /// bounced with `"queue-full"` before counting it rejected (0 disables).
    pub load_retries: usize,
    /// `COSTAS_LOAD_RETRY_BACKOFF_MS`: base of the deterministic exponential
    /// backoff between those retries (`base * 2^attempt` milliseconds).
    pub load_retry_backoff_ms: u64,
    /// `COSTAS_FAULT_SEED`: when set, `load_gen` installs a seeded chaos
    /// fault plan and routes part of its mix through the fault-injection
    /// wrapper, so the serving numbers are measured under injected failures.
    pub fault_seed: Option<u64>,
    /// `COSTAS_CAMPAIGN_N`: instance order of the `campaign` harness.
    pub campaign_n: usize,
    /// `COSTAS_CAMPAIGN_WALKERS`: walker count of the `campaign` harness.
    pub campaign_walkers: usize,
    /// `COSTAS_CAMPAIGN_ROUNDS`: total rounds the `campaign` harness runs.
    pub campaign_rounds: u64,
    /// `COSTAS_CAMPAIGN_INTERVAL`: engine steps per walker per campaign round
    /// (the checkpoint granularity).
    pub campaign_interval: u64,
    /// `COSTAS_CAMPAIGN_DIR`: directory holding the campaign checkpoint files
    /// and result log (`None` = `target/experiments/campaign`).
    pub campaign_dir: Option<PathBuf>,
    /// `COSTAS_CAMPAIGN_HALT_AFTER`: when set, the `campaign` harness simulates
    /// a crash — the given round runs *without* its checkpoint and the process
    /// exits with status 3 — so CI can exercise the resume path for real.
    pub campaign_halt_after: Option<u64>,
    /// Diagnostics accumulated during parsing (unknown variables, bad values).
    pub warnings: Vec<String>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            full: false,
            runs_override: None,
            master_seed: DEFAULT_MASTER_SEED,
            bench_json: None,
            coop_interval: 64,
            solverd_addr: None,
            load_rps: 20.0,
            load_requests: 60,
            load_workers: 2,
            load_queue: 16,
            load_retries: 3,
            load_retry_backoff_ms: 25,
            fault_seed: None,
            campaign_n: 10,
            campaign_walkers: 2,
            campaign_rounds: 3,
            campaign_interval: 2_000,
            campaign_dir: None,
            campaign_halt_after: None,
            warnings: Vec::new(),
        }
    }
}

impl BenchConfig {
    /// The process-wide configuration, parsed from the environment on first
    /// use; parse warnings are printed to stderr exactly once, here.
    pub fn get() -> &'static BenchConfig {
        static CONFIG: OnceLock<BenchConfig> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let config = BenchConfig::from_vars(std::env::vars());
            for warning in &config.warnings {
                eprintln!("bench config: {warning}");
            }
            config
        })
    }

    /// Parse a configuration from explicit `(name, value)` pairs (the testable
    /// core of [`BenchConfig::get`]).  Non-`COSTAS_*` variables are ignored.
    pub fn from_vars(vars: impl IntoIterator<Item = (String, String)>) -> Self {
        let mut config = BenchConfig::default();
        for (name, value) in vars {
            if !name.starts_with("COSTAS_") {
                continue;
            }
            match name.as_str() {
                "COSTAS_FULL" => config.full = value != "0",
                "COSTAS_RUNS" => match value.parse() {
                    Ok(runs) => config.runs_override = Some(runs),
                    Err(_) => config.warn_parse(&name, &value, "ignored"),
                },
                "COSTAS_SEED" => match value.parse() {
                    Ok(seed) => config.master_seed = seed,
                    Err(_) => {
                        let default = config.master_seed;
                        config.warn_parse(&name, &value, &format!("using {default:#x}"));
                    }
                },
                "COSTAS_BENCH_JSON" => config.bench_json = Some(PathBuf::from(value)),
                "COSTAS_COOP_INTERVAL" => match value.parse() {
                    Ok(interval) => config.coop_interval = interval,
                    Err(_) => {
                        let default = config.coop_interval;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_SOLVERD_ADDR" => config.solverd_addr = Some(value),
                "COSTAS_LOAD_RPS" => match value.parse::<f64>() {
                    Ok(rps) if rps > 0.0 && rps.is_finite() => config.load_rps = rps,
                    _ => {
                        let default = config.load_rps;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_LOAD_REQUESTS" => match value.parse() {
                    Ok(requests) => config.load_requests = requests,
                    Err(_) => {
                        let default = config.load_requests;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_LOAD_WORKERS" => match value.parse::<usize>() {
                    Ok(workers) if workers > 0 => config.load_workers = workers,
                    _ => {
                        let default = config.load_workers;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_LOAD_QUEUE" => match value.parse::<usize>() {
                    Ok(capacity) if capacity > 0 => config.load_queue = capacity,
                    _ => {
                        let default = config.load_queue;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_LOAD_RETRIES" => match value.parse() {
                    Ok(retries) => config.load_retries = retries,
                    Err(_) => {
                        let default = config.load_retries;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_LOAD_RETRY_BACKOFF_MS" => match value.parse() {
                    Ok(base) => config.load_retry_backoff_ms = base,
                    Err(_) => {
                        let default = config.load_retry_backoff_ms;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_FAULT_SEED" => match value.parse() {
                    Ok(seed) => config.fault_seed = Some(seed),
                    Err(_) => config.warn_parse(&name, &value, "fault injection stays off"),
                },
                "COSTAS_CAMPAIGN_N" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => config.campaign_n = n,
                    _ => {
                        let default = config.campaign_n;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_CAMPAIGN_WALKERS" => match value.parse::<usize>() {
                    Ok(walkers) if walkers > 0 => config.campaign_walkers = walkers,
                    _ => {
                        let default = config.campaign_walkers;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_CAMPAIGN_ROUNDS" => match value.parse::<u64>() {
                    Ok(rounds) if rounds > 0 => config.campaign_rounds = rounds,
                    _ => {
                        let default = config.campaign_rounds;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_CAMPAIGN_INTERVAL" => match value.parse::<u64>() {
                    Ok(interval) if interval > 0 => config.campaign_interval = interval,
                    _ => {
                        let default = config.campaign_interval;
                        config.warn_parse(&name, &value, &format!("using {default}"));
                    }
                },
                "COSTAS_CAMPAIGN_DIR" => config.campaign_dir = Some(PathBuf::from(value)),
                "COSTAS_CAMPAIGN_HALT_AFTER" => match value.parse() {
                    Ok(round) => config.campaign_halt_after = Some(round),
                    Err(_) => config.warn_parse(&name, &value, "crash simulation stays off"),
                },
                _ => config.warnings.push(format!(
                    "unknown variable {name} (typo? this version knows: FULL, RUNS, SEED, \
                     BENCH_JSON, COOP_INTERVAL, SOLVERD_ADDR, LOAD_RPS, LOAD_REQUESTS, \
                     LOAD_WORKERS, LOAD_QUEUE, LOAD_RETRIES, LOAD_RETRY_BACKOFF_MS, \
                     FAULT_SEED, CAMPAIGN_N, CAMPAIGN_WALKERS, CAMPAIGN_ROUNDS, \
                     CAMPAIGN_INTERVAL, CAMPAIGN_DIR, CAMPAIGN_HALT_AFTER)"
                )),
            }
        }
        config
    }

    fn warn_parse(&mut self, name: &str, value: &str, action: &str) {
        self.warnings
            .push(format!("could not parse {name}={value:?}; {action}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_apply_with_an_empty_environment() {
        let config = BenchConfig::from_vars(vars(&[]));
        assert!(!config.full);
        assert_eq!(config.runs_override, None);
        assert_eq!(config.master_seed, DEFAULT_MASTER_SEED);
        assert_eq!(config.coop_interval, 64);
        assert!(config.warnings.is_empty());
    }

    #[test]
    fn every_knob_parses() {
        let config = BenchConfig::from_vars(vars(&[
            ("COSTAS_FULL", "1"),
            ("COSTAS_RUNS", "7"),
            ("COSTAS_SEED", "12345"),
            ("COSTAS_BENCH_JSON", "out.json"),
            ("COSTAS_COOP_INTERVAL", "128"),
            ("COSTAS_SOLVERD_ADDR", "127.0.0.1:7777"),
            ("COSTAS_LOAD_RPS", "12.5"),
            ("COSTAS_LOAD_REQUESTS", "99"),
            ("COSTAS_LOAD_WORKERS", "3"),
            ("COSTAS_LOAD_QUEUE", "5"),
            ("COSTAS_LOAD_RETRIES", "6"),
            ("COSTAS_LOAD_RETRY_BACKOFF_MS", "10"),
            ("COSTAS_FAULT_SEED", "4242"),
            ("COSTAS_CAMPAIGN_N", "12"),
            ("COSTAS_CAMPAIGN_WALKERS", "4"),
            ("COSTAS_CAMPAIGN_ROUNDS", "9"),
            ("COSTAS_CAMPAIGN_INTERVAL", "500"),
            ("COSTAS_CAMPAIGN_DIR", "campaign_state"),
            ("COSTAS_CAMPAIGN_HALT_AFTER", "2"),
            ("PATH", "/usr/bin"), // non-COSTAS vars are ignored
        ]));
        assert!(config.full);
        assert_eq!(config.runs_override, Some(7));
        assert_eq!(config.master_seed, 12345);
        assert_eq!(config.bench_json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(config.coop_interval, 128);
        assert_eq!(config.solverd_addr.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(config.load_rps, 12.5);
        assert_eq!(config.load_requests, 99);
        assert_eq!(config.load_workers, 3);
        assert_eq!(config.load_queue, 5);
        assert_eq!(config.load_retries, 6);
        assert_eq!(config.load_retry_backoff_ms, 10);
        assert_eq!(config.fault_seed, Some(4242));
        assert_eq!(config.campaign_n, 12);
        assert_eq!(config.campaign_walkers, 4);
        assert_eq!(config.campaign_rounds, 9);
        assert_eq!(config.campaign_interval, 500);
        assert_eq!(
            config.campaign_dir.as_deref(),
            Some(Path::new("campaign_state"))
        );
        assert_eq!(config.campaign_halt_after, Some(2));
        assert!(config.warnings.is_empty(), "{:?}", config.warnings);
    }

    #[test]
    fn unknown_costas_variables_warn() {
        // A typo, and the two knobs of the retired strong-scaling sweep.
        let names = ["COSTAS_THREAD", "COSTAS_THREADS", "COSTAS_SCALING_STEPS"];
        let config = BenchConfig::from_vars(vars(&[
            (names[0], "8"),
            (names[1], "1,2"),
            (names[2], "5000"),
        ]));
        assert_eq!(config.warnings.len(), names.len(), "{:?}", config.warnings);
        for (warning, name) in config.warnings.iter().zip(names) {
            assert!(warning.contains(&format!("variable {name} ")), "{warning}");
            assert!(warning.contains("unknown"), "{warning}");
        }
        // ...and did not silently change any knob
        let defaults = BenchConfig::default();
        assert_eq!(config.runs_override, defaults.runs_override);
        assert_eq!(config.master_seed, defaults.master_seed);
    }

    #[test]
    fn parse_failures_warn_and_keep_the_default() {
        let config = BenchConfig::from_vars(vars(&[
            ("COSTAS_RUNS", "ten"),
            ("COSTAS_SEED", "0xNOPE"),
            ("COSTAS_LOAD_RPS", "-3"),
            ("COSTAS_LOAD_WORKERS", "0"),
            ("COSTAS_LOAD_RETRIES", "many"),
            ("COSTAS_FAULT_SEED", "chaotic"),
            ("COSTAS_CAMPAIGN_WALKERS", "0"),
            ("COSTAS_CAMPAIGN_INTERVAL", "soon"),
        ]));
        assert_eq!(config.runs_override, None);
        assert_eq!(config.master_seed, DEFAULT_MASTER_SEED);
        assert_eq!(config.load_rps, BenchConfig::default().load_rps);
        assert_eq!(config.load_workers, BenchConfig::default().load_workers);
        assert_eq!(config.load_retries, BenchConfig::default().load_retries);
        assert_eq!(config.fault_seed, None, "a bad seed must not arm chaos");
        assert_eq!(
            config.campaign_walkers,
            BenchConfig::default().campaign_walkers,
            "a zero walker count must not produce an unrunnable campaign"
        );
        assert_eq!(
            config.campaign_interval,
            BenchConfig::default().campaign_interval
        );
        assert_eq!(config.warnings.len(), 8, "{:?}", config.warnings);
        for warning in &config.warnings {
            assert!(warning.contains("could not parse"), "{warning}");
        }
    }
}
