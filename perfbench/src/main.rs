//! The BlinkML benchmark: one command runs one named workload from a
//! seed, checks the outputs, and prints its metrics as the last line of
//! standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyst-tall --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics ([`metrics::END_TO_END`]);
//! `--trace 1` re-runs the same workload with spans around every call
//! into a layer and prints the per-layer metrics
//! ([`metrics::PER_LAYER`]). See `perfbench/README.md`.

mod analyst;
mod ingest;
mod loadgen;
mod metrics;
mod serve;
mod trace;

use blinkml_data::generators::higgs_like;
use blinkml_data::{DenseVec, Example};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &["analyst-tall", "analyst-wide", "serve-zipf", "ingest-drift"];

/// The command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Run {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Run `setup` [`SETUP_REPS`] times, returning the last result and each
/// set-up's wall time in seconds. Earlier results are dropped before the
/// next set-up starts, so peak memory holds one set of inputs.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// `rows` rows of the HIGGS-like problem `problem`.
/// The problem (feature covariance, true weights) is fixed by its own
/// seed, so every run seed poses the same learning task; the run seed
/// draws which rows, out of a generated pool a quarter larger.
pub fn higgs_rows(rows: usize, dim: usize, problem: u64, seed: u64) -> Vec<Example<DenseVec>> {
    higgs_like(rows + rows / 4, dim, problem)
        .sample(rows, seed)
        .into_examples()
}

/// Total and steal jiffies of all CPUs, from `/proc/stat`.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let cpu_before = host_cpu();
    let mut report = match run.workload.as_str() {
        "analyst-tall" => analyst::run(&analyst::TALL, &run),
        "analyst-wide" => analyst::run(&analyst::WIDE, &run),
        "serve-zipf" => serve::run(&run),
        "ingest-drift" => ingest::run(&run),
        _ => unreachable!("workload validated by parse_args"),
    };
    let table = if run.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    report.check_finite(table);
    println!(
        "# workload={} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    // Time the hypervisor gave to other guests while this run was
    // going: context for a figure that moved with no code change.
    if let (Some((total0, steal0)), Some((total1, steal1))) = (cpu_before, host_cpu()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!("# host steal share={share:.4}");
    }
    println!("{}", report.json(table));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let run = parse_args(&args(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(run.workload, "serve-zipf");
        assert_eq!(run.seed, 7);
        assert_eq!(run.seconds, 10.0);
        assert!(run.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "serve-zipf"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
    }
}
