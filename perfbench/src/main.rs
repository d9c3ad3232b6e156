//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits non-zero when
//! a correctness gate fails. The run's stores are removed after the
//! result line is printed.

use perfbench::{run, Options, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&options);
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(error) = &outcome.error {
        eprintln!("perfbench: correctness gate failed: {error}");
    }
    println!("{}", outcome.result_line(options.trace));
    if let Err(e) = outcome.remove_stores() {
        eprintln!(
            "perfbench: cannot remove {}: {e}",
            outcome.store_dir.display()
        );
    }
    if outcome.error.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
