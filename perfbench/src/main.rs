//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line (fingerprint, trajectory digest) and, as the last
//! line of standard output, the result object.  Exits with 2 on bad
//! arguments, without a result.

use std::process::ExitCode;

use perfbench::workloads::{self, Run};
use runtime_stats::json::Json;

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(run.seconds > 0.0 && run.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run))
}

fn main() -> ExitCode {
    let (name, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(outcome) = workloads::run(&name, &run) else {
        eprintln!(
            "perfbench: unknown workload {name:?}; known: {}",
            workloads::names().collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    };
    println!("{}", Json::object(outcome.detail.clone()).render());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
