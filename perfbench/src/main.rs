//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stack-solo|stack-contended|queue-pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one workload with at most `nproc` worker threads,
//! each pinned to its own CPU. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` prints the per-layer ledger.
//! Lines starting with `#` describe the host and the run; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed correctness check exits with code 1.

mod check;
mod drive;
mod gen;
mod hist;
mod host;
mod pin;
mod target;
mod workloads;

use std::process::ExitCode;

use workloads::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be in 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Formats a metric value: every digit as measured, and never NaN or
/// infinity, which JSON cannot hold.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = args.workload.workers();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if workers > nproc {
        eprintln!(
            "perfbench: {} needs {workers} workers on distinct CPUs but only {nproc} are available",
            args.workload.name()
        );
        return ExitCode::from(2);
    }
    let cpus = match pin::allowed_cpus() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: cannot read the CPU affinity mask: {e}");
            Vec::new()
        }
    };
    println!("# {}", host::describe());
    println!(
        "# workload={} seed={} seconds={} trace={} workers={workers} cpus={:?} sample_every={} timed_ops={} window_ms={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        &cpus[..workers.min(cpus.len())],
        drive::SAMPLE_EVERY,
        drive::TIMED_OPS,
        drive::WINDOW.as_millis(),
    );
    let out = if args.trace {
        workloads::ledger(args.workload, args.seed, args.seconds, &cpus)
    } else {
        workloads::end_to_end(args.workload, args.seed, args.seconds, &cpus)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, number(m.value), m.unit);
    }
    for v in &out.violations {
        println!("# VIOLATION: {v}");
    }
    println!("{}", result_json(&out));
    if out.violations.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_input_is_refused() {
        let a = args("--workload queue-pipeline --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::QueuePipeline);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload stack-solo --trace 2").is_err());
        assert!(args("--workload stack-solo --seconds 0").is_err());
        assert!(args("--workload stack-solo --seed").is_err());
    }

    #[test]
    fn the_result_is_one_json_line() {
        let out = Outcome {
            metrics: vec![workloads::Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
            attempted: 10,
            ..Outcome::default()
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(number(f64::NAN), "0.0");
    }
}
