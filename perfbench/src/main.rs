//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]`
//!
//! Runs one workload and prints a report followed, as the last line of
//! standard output, by the JSON result object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant and reports
//! the per-layer metrics (span logs go to `--out-dir` when given). Exits
//! 1 when an output check fails and 2 on a usage error.

use pqs_perfbench::serve::{self, HEAVY_RATE, LIGHT_RATE};
use pqs_perfbench::sim::{self, MANET_N, SUBSTRATE_N};
use pqs_perfbench::stats::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["substrate-100k", "manet-800", "serve-light", "serve-heavy"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir,
    })
}

fn run(a: &Args) -> std::io::Result<Outcome> {
    let out = a.out_dir.as_deref();
    Ok(match (a.workload.as_str(), a.trace) {
        ("substrate-100k", false) => sim::substrate_untraced(SUBSTRATE_N, a.seed, a.seconds),
        ("substrate-100k", true) => sim::substrate_traced(SUBSTRATE_N, a.seed, out),
        ("manet-800", false) => sim::manet_untraced(&sim::manet_config(MANET_N), a.seed, a.seconds),
        ("manet-800", true) => sim::manet_traced(&sim::manet_config(MANET_N), a.seed, out),
        ("serve-light", false) => {
            serve::serve_untraced(&a.workload, LIGHT_RATE, a.seed, a.seconds)?
        }
        ("serve-heavy", false) => {
            serve::serve_untraced(&a.workload, HEAVY_RATE, a.seed, a.seconds)?
        }
        (name, true) => {
            let heavy = name == "serve-heavy";
            let rate = if heavy { HEAVY_RATE } else { LIGHT_RATE };
            serve::serve_traced_outcome(name, rate, heavy, a.seed, a.seconds, out)?
        }
        _ => unreachable!("workload names are validated in parse_args"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: output check failed", args.workload);
        ExitCode::from(1)
    }
}
