#![forbid(unsafe_code)]
//! lamolint CLI.
//!
//! ```text
//! lamolint check [--root DIR] [--json] [--no-report]   lint the tree
//! lamolint rules                                      print the catalog
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error — CI gates on
//! them. `check` always writes `target/lamolint-report.json` under the
//! workspace root (disable with `--no-report`) so future PRs can diff
//! rule counts; `--json` additionally prints the same JSON to stdout.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in lamolint::diag::ALL_RULES {
                println!("{:<20} {}", rule.name(), rule.describe());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: lamolint check [--root DIR] [--json] [--no-report]\n\
                 \u{20}      lamolint rules"
            );
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut write_report = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--no-report" => write_report = false,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("lamolint: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("lamolint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("lamolint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match lamolint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "lamolint: no workspace root found above {} \
                         (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match lamolint::run_check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lamolint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human());
    }
    if write_report {
        let target = root.join("target");
        let path = target.join("lamolint-report.json");
        if let Err(e) = fs::create_dir_all(&target).and_then(|()| fs::write(&path, report.to_json()))
        {
            eprintln!("lamolint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    ExitCode::from(report.exit_code() as u8)
}
