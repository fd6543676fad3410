//! Command-line entry point of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Fixes glibc's allocator thresholds first (see
//! [`fix_allocator_thresholds`]), then prints the host facts, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Each run's record
//! (those two lines and every timed round's time) is also written under
//! `.perfbench-out/`.

use std::process::ExitCode;

use perfbench::measure::{fix_allocator_thresholds, map, text, HostFacts};
use serde::Value;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Directory, relative to the working directory, that run records go to.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Compact JSON text of `value`.
fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("the JSON model always serializes")
}

fn main() -> ExitCode {
    if let Err(e) = fix_allocator_thresholds() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let header = map([
        ("workload", text(&args.workload)),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::UInt(u64::from(args.trace))),
        ("host", HostFacts::collect().value()),
    ]);
    println!("{}", json(&header));
    let outcome = match perfbench::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let result = outcome.result(perfbench::metric_names(args.trace));
    let line = json(&result);
    let record = map([("run", header), ("result", result), ("rounds", outcome.rounds_value())]);
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json(&record) + "\n"));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
