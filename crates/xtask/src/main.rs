//! Repo automation tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! The main task is `analyze`: a multi-pass static analyzer built on a small
//! hand-rolled Rust lexer and token-tree parser (no rustc plumbing, no
//! dependencies — the workspace builds offline). See DESIGN.md §11 for the
//! front end and the pass descriptions, and `crates/xtask/src/analyze.rs`
//! for the driver.
//!
//!   cargo run -p xtask -- analyze              # human-readable report
//!   cargo run -p xtask -- analyze --json       # machine-readable (CI artifact)
//!   cargo run -p xtask -- analyze --bless      # regenerate lock files + baseline
//!   cargo run -p xtask -- analyze --only PASS  # one pass (e.g. fence-budget)
//!   cargo run -p xtask -- analyze --baseline crates/xtask/analysis_baseline.json
//!                                              # fail only on NEW findings (CI)
//!   cargo run -p xtask -- explain <check-id>   # rule, rationale, escape hatch

mod analyze;
mod cfg;
mod fences;
mod layout;
mod lexer;
mod locks;
mod races;
mod sites;
mod source;
mod summary;

use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--json] [--bless] [--only PASS] \
                    [--baseline FILE.json]\n       cargo run -p xtask -- explain [CHECK-ID]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let mut json = false;
            let mut opts = analyze::Options::default();
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--json" => json = true,
                    "--bless" => opts.bless = true,
                    "--only" => match it.next() {
                        Some(pass) => opts.only = Some(pass.clone()),
                        None => {
                            eprintln!("xtask analyze: --only needs a pass name\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    },
                    "--baseline" => match it.next() {
                        Some(path) => opts.baseline = Some(PathBuf::from(path)),
                        None => {
                            eprintln!("xtask analyze: --baseline needs a file path\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("xtask analyze: unknown flag `{other}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(only) = &opts.only {
                if !analyze::check_ids().contains(&only.as_str()) {
                    eprintln!(
                        "xtask analyze: unknown pass `{only}` (available: {})",
                        analyze::check_ids().join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
            let report = analyze::run(&repo_root(), &opts);
            if json {
                print!("{}", analyze::render_json(&report));
            } else {
                eprint!("{}", analyze::render_human(&report));
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("explain") => match args.get(1) {
            Some(id) => match analyze::explain(id) {
                Some(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "xtask explain: unknown check `{id}` (available: {})",
                        analyze::check_ids().join(", ")
                    );
                    ExitCode::FAILURE
                }
            },
            None => {
                println!("checks: {}", analyze::check_ids().join(", "));
                println!("run `cargo run -p xtask -- explain <check-id>` for details");
                ExitCode::SUCCESS
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: analyze, explain)\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
