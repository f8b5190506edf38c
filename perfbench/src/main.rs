//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <olap_hybrid|wire_zipf|ingest_stream|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for `--seconds` and prints its metrics, one
//! `name value unit` line each, then one JSON line: the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`. `all` runs every
//! workload, each in its own process (peak RSS never resets). Any answer
//! that disagrees with its oracle makes the exit code 1. See README.md.

mod layers;
mod plans;
mod report;
mod rng;
mod spans;
mod stats;
mod workloads;
mod world;

use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::Params;

const WORKLOADS: [&str; 3] = ["olap_hybrid", "wire_zipf", "ingest_stream"];

/// Where reports and span files go, relative to the working directory.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        params: Params {
            seed,
            seconds,
            trace,
        },
    })
}

/// Run every workload in a child process of its own, in order.
fn run_all(p: &Params) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &p.seed.to_string()])
            .args([
                "--seconds",
                &p.seconds.to_string(),
                "--trace",
                if p.trace { "1" } else { "0" },
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let p = args.params;
    let outcome = match args.workload.as_str() {
        "all" => return run_all(&p),
        "olap_hybrid" => workloads::olap_hybrid(&p),
        "wire_zipf" => workloads::wire_zipf(&p),
        _ => workloads::ingest_stream(&p),
    };
    print!("{}", outcome.table(&args.workload, p.seed, p.trace));
    if let Err(e) = outcome.write_files(Path::new(RESULTS_DIR), &args.workload, p.seed, p.trace) {
        eprintln!("perfbench: cannot write results under {RESULTS_DIR}: {e}");
    }
    println!("{}", outcome.json());
    if outcome.mismatches > 0 {
        eprintln!(
            "perfbench: {} answers disagreed with their oracle",
            outcome.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
