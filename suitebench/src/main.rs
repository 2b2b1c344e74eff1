//! `suitebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host line, one line per metric (`name = value unit`), and
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 if any row failed verification or the count
//! checks, 2 on bad arguments.

use std::process::ExitCode;

use suitebench::workload::Workload;
use suitebench::{run_traced, run_untraced, Options};

const USAGE: &str = "usage: suitebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = Options::new(args.workload, args.seed, args.seconds);
    let outcome = if args.trace {
        run_traced(&opts)
    } else {
        run_untraced(&opts)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("suitebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("suitebench: metric {} is not finite ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    println!("host {}", outcome.host.render_compact());
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_line());
    if outcome.failed > 0 {
        eprintln!(
            "suitebench: {} of {} rows failed verification or the count checks",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
