//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, in order: the host
//! fingerprint line, the workload's informational figures, and as the
//! last line the result object (`correct`, `attempted`, `failed`,
//! `metrics`). Failure messages go to standard error.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::fingerprint_line;
use perfbench::{available_threads, run, RunConfig, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <fleet-month|fairness-study|live-service> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| bad("expected whole seconds"))?);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.traced,
        threads: available_threads(),
        scale: Scale::full(),
    };
    println!(
        "{}",
        fingerprint_line(args.workload.name(), args.seed, args.traced, cfg.threads)
    );
    let outcome = run(args.workload, &cfg);
    for failure in &outcome.ledger.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.details_line());
    println!("{}", outcome.result_line(args.traced));
    ExitCode::SUCCESS
}
