//! Result plumbing: the metrics object, quantiles, the machine fingerprint
//! and the determinism ledger.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use runtime_stats::json::Json;

/// Named metric values with their units, rendered in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, &(value, unit))| {
                    let entry = Json::object(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::from(unit)),
                    ]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// What one run measured and how much of it went wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra facts printed on the detail line (trajectory digest, tiers, …).
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Count one unit of work, failed or not.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn result_line(&self) -> String {
        Json::object(vec![
            (
                "correct",
                Json::from(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics.to_json()),
        ])
        .render()
    }
}

/// Harrell–Davis estimate of quantile `q`: the order statistics averaged
/// with weights from the Beta(q(n + 1), (1 − q)(n + 1)) mass over each one's
/// interval `[(i − 1)/n, i/n]`.  Unlike a single order statistic it does not
/// jump when one sample near the quantile moves, which keeps a p90 taken
/// from a hundred samples steady.  NaN for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // Midpoint rule over a grid of at least eight points per sample, in log
    // space so the narrow peak of a large sample cannot underflow.
    let grid = (8 * n).max(4096);
    let point = |k: usize| (k as f64 + 0.5) / grid as f64;
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (-x).ln_1p();
    let peak = (0..grid)
        .map(|k| log_density(point(k)))
        .fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for k in 0..grid {
        weights[k * n / grid] += (log_density(point(k)) - peak).exp();
    }
    let (mut sum, mut total) = (0.0, 0.0);
    for (&w, &x) in weights.iter().zip(&sorted) {
        // Order statistics far from the quantile carry no weight, so an
        // infinite sample there (a failed request) cannot swamp the estimate.
        if w > 1e-12 {
            sum += w * x;
            total += w;
        }
    }
    sum / total
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The Costas probe tier an order dispatches to, by the rule documented in
/// `costas::kernel`: `⌈(2n − 1) / 64⌉` mask words per row; one or two words
/// run the monomorphized kernel (AVX-512 body when F + DQ are present), more
/// run the slice-held scalar body.
pub fn probe_tier(n: usize) -> String {
    let words = (2 * n - 1).div_ceil(64);
    match words {
        1 | 2 => {
            let body = if cpu_has("avx512f") && cpu_has("avx512dq") {
                "avx512"
            } else {
                "scalar"
            };
            format!("w{words}-{body}")
        }
        _ => format!("slice-w{words}-scalar"),
    }
}

fn cpu_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            "avx512dq" => std::arch::is_x86_feature_detected!("avx512dq"),
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// CPU model, vector features, hardware threads, compiler, build profile and
/// the probe tier of every Costas order the workload runs.
pub fn fingerprint(costas_orders: &[usize]) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let features = ["avx512f", "avx512dq", "avx2"]
        .iter()
        .map(|&f| (f, Json::from(cpu_has(f))))
        .collect();
    let tiers = costas_orders
        .iter()
        .map(|&n| (format!("n{n}"), Json::from(probe_tier(n))))
        .collect();
    Json::object(vec![
        ("cpu", Json::from(cpu)),
        ("features", Json::object(features)),
        ("hardware_threads", Json::from(threads)),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::from(env!("PERFBENCH_PROFILE"))),
        ("debug_assertions", Json::from(cfg!(debug_assertions))),
        ("probe_tiers", Json::object(tiers)),
    ])
}

/// FNV-1a over bytes: the build identity and trajectory digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How this run's trajectories compare with earlier runs in the same checkout.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LedgerCheck {
    /// Units seen before whose trajectory now differs, same build: the
    /// program is not deterministic — a failure.
    pub nondeterministic: u64,
    /// Units whose trajectory differs from one recorded by another build:
    /// the code changed the search path, so timings are not comparable.
    pub changed: u64,
    /// Units seen before with the same trajectory.
    pub replayed: u64,
}

/// Compare `(unit key, trajectory)` pairs with the ledger file and append the
/// new ones.  Each line is `build<TAB>unit key<TAB>trajectory`.
pub fn check_ledger(path: &Path, build: &str, entries: &[(String, String)]) -> LedgerCheck {
    let known = std::fs::read_to_string(path).unwrap_or_default();
    let mut seen: BTreeMap<(&str, &str), Vec<&str>> = BTreeMap::new();
    for line in known.lines() {
        let mut parts = line.splitn(3, '\t');
        if let (Some(b), Some(key), Some(traj)) = (parts.next(), parts.next(), parts.next()) {
            seen.entry((key, b)).or_default().push(traj);
        }
    }
    let mut check = LedgerCheck::default();
    let mut fresh = String::new();
    for (key, traj) in entries {
        let mut same_build_known = false;
        let mut other_build_differs = false;
        let mut matched = false;
        for ((k, b), trajs) in seen.range((key.as_str(), "")..) {
            if *k != key.as_str() {
                break;
            }
            for t in trajs {
                if t == traj {
                    matched = true;
                } else if *b == build {
                    check.nondeterministic += 1;
                } else {
                    other_build_differs = true;
                }
                same_build_known |= *b == build;
            }
        }
        if other_build_differs {
            check.changed += 1;
        }
        if matched {
            check.replayed += 1;
        }
        if !same_build_known {
            fresh.push_str(&format!("{build}\t{key}\t{traj}\n"));
        }
    }
    if !fresh.is_empty() {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?
                    .write_all(fresh.as_bytes())
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot append to {}: {e}", path.display());
        }
    }
    check
}

/// Identity of the running build: a hash of the executable's bytes.
pub fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    format!("{:016x}", fnv1a(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        assert!((median(&[4.0, 1.0, 3.0, 2.0]) - 2.5).abs() < 1e-9);
        assert_eq!(median(&[7.0; 5]), 7.0);
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        // Beta(90.9, 10.1) has mean 0.9: the estimate sits near the 90.5th
        // of 100 ordered samples.
        assert!(
            (quantile(&ramp, 0.9) - 90.5).abs() < 0.05,
            "{}",
            quantile(&ramp, 0.9)
        );
        assert!(quantile(&ramp, 0.5) < quantile(&ramp, 0.9));
        let mut tail = ramp.clone();
        tail[0] = f64::INFINITY;
        assert!(
            quantile(&tail, 0.5).is_finite(),
            "far samples carry no weight"
        );
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn probe_tiers_follow_mask_width() {
        assert!(probe_tier(16).starts_with("w1-"));
        assert!(probe_tier(40).starts_with("w2-"));
        assert_eq!(probe_tier(80), "slice-w3-scalar");
    }

    #[test]
    fn ledger_separates_replays_changes_and_nondeterminism() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let path = dir.join("ledger.tsv");
        let _ = std::fs::remove_file(&path);
        let e = |k: &str, t: &str| vec![(k.to_string(), t.to_string())];
        assert_eq!(
            check_ledger(&path, "a", &e("u1", "x")),
            LedgerCheck::default()
        );
        let replay = check_ledger(&path, "a", &e("u1", "x"));
        assert_eq!(replay.replayed, 1);
        let drift = check_ledger(&path, "a", &e("u1", "y"));
        assert_eq!(drift.nondeterministic, 1);
        let changed = check_ledger(&path, "b", &e("u1", "z"));
        assert_eq!((changed.changed, changed.nondeterministic), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
