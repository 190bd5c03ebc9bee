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
                     BENCH_JSON, CAMPAIGN_N, CAMPAIGN_WALKERS, CAMPAIGN_ROUNDS, \
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
        assert!(config.warnings.is_empty());
    }

    #[test]
    fn every_knob_parses() {
        let config = BenchConfig::from_vars(vars(&[
            ("COSTAS_FULL", "1"),
            ("COSTAS_RUNS", "7"),
            ("COSTAS_SEED", "12345"),
            ("COSTAS_BENCH_JSON", "out.json"),
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
        // A typo, the two knobs of the retired strong-scaling sweep, the
        // exchange interval of the retired cooperative comparison, and the
        // offered rate of the retired load generator.
        let names = [
            "COSTAS_THREAD",
            "COSTAS_THREADS",
            "COSTAS_SCALING_STEPS",
            "COSTAS_COOP_INTERVAL",
            "COSTAS_LOAD_RPS",
        ];
        let config = BenchConfig::from_vars(vars(&[
            (names[0], "8"),
            (names[1], "1,2"),
            (names[2], "5000"),
            (names[3], "128"),
            (names[4], "40"),
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
            ("COSTAS_CAMPAIGN_WALKERS", "0"),
            ("COSTAS_CAMPAIGN_INTERVAL", "soon"),
        ]));
        assert_eq!(config.runs_override, None);
        assert_eq!(config.master_seed, DEFAULT_MASTER_SEED);
        assert_eq!(
            config.campaign_walkers,
            BenchConfig::default().campaign_walkers,
            "a zero walker count must not produce an unrunnable campaign"
        );
        assert_eq!(
            config.campaign_interval,
            BenchConfig::default().campaign_interval
        );
        assert_eq!(config.warnings.len(), 4, "{:?}", config.warnings);
        for warning in &config.warnings {
            assert!(warning.contains("could not parse"), "{warning}");
        }
    }
}
