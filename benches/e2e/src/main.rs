//! `relm_bench` — the repo benchmark. See `README.md` beside this
//! package and `/BENCHMARK.json`.
//!
//! ```text
//! relm_bench --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! relm_bench --all            [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! One workload runs per process, so that its set-up time and peak
//! memory are its own; `--all` runs the four as child processes, one
//! after another.

#![forbid(unsafe_code)]

mod audit_cold;
mod audit_warm;
mod exec;
mod harness;
mod probes;
mod serve_mixed;
mod stats;
mod store_restart;
mod trace;
mod world;

use std::process::ExitCode;

use harness::{drive, Args, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: relm_bench (--workload <name> | --all) [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

/// Seconds an untraced run measures for when `--seconds` is absent;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn parse(argv: &[String]) -> Result<(Option<String>, Args), String> {
    let mut workload = None;
    let mut all = false;
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut rest = argv.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--all" => all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    match (&workload, all) {
        (Some(name), false) if WORKLOADS.contains(&name.as_str()) => Ok((workload, args)),
        (Some(name), false) => Err(format!("unknown workload {name}; one of {WORKLOADS:?}")),
        (None, true) => Ok((None, args)),
        _ => Err("give exactly one of --workload and --all".into()),
    }
}

/// Run every workload in a process of its own, passing the other
/// arguments through. True when all of them passed.
fn run_all(argv: &[String]) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let passed_on: Vec<&String> = argv.iter().filter(|a| *a != "--all").collect();
    let mut all_correct = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(&passed_on)
            .status()?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match workload.as_deref() {
        Some("audit_cold") => drive::<audit_cold::AuditCold>(&args),
        Some("audit_warm") => drive::<audit_warm::AuditWarm>(&args),
        Some("store_restart") => drive::<store_restart::StoreRestart>(&args),
        Some("serve_mixed") => drive::<serve_mixed::ServeMixed>(&args),
        _ => run_all(&argv).unwrap_or_else(|err| {
            eprintln!("could not start a workload process: {err}");
            false
        }),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
