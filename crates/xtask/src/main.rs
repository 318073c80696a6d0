//! Repo automation tasks, invoked as `cargo run -p xtask -- <task>`.
//!
//! The main task is `analyze`: four token-level passes (the `mvkv-sync`
//! facade, `// SAFETY:` comments, the PM layout lock, `// ordering:`
//! comments) over a small hand-rolled Rust lexer and token-tree parser (no
//! rustc plumbing, no dependencies — the workspace builds offline). See
//! DESIGN.md §11 for the front end and the pass descriptions, and
//! `crates/xtask/src/analyze.rs` for the driver.
//!
//!   cargo run -p xtask -- analyze              # human-readable report
//!   cargo run -p xtask -- analyze --json       # machine-readable (CI artifact)
//!   cargo run -p xtask -- analyze --bless      # regenerate pm_layout.lock
//!   cargo run -p xtask -- explain <check-id>   # rule, rationale, escape hatch
//!
//! Any finding is exit 1. Anything else on the command line is a usage error.

mod analyze;
mod layout;
mod lexer;
mod sites;
mod source;

use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--json] [--bless]\n       \
                     cargo run -p xtask -- explain [CHECK-ID]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["analyze", flags @ ..] if flags.iter().all(|f| matches!(*f, "--json" | "--bless")) => {
            let report = analyze::run(&repo_root(), flags.contains(&"--bless"));
            if flags.contains(&"--json") {
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
        ["explain"] => {
            println!("checks: {}", analyze::check_ids().join(", "));
            println!("run `cargo run -p xtask -- explain <check-id>` for details");
            ExitCode::SUCCESS
        }
        ["explain", id] => match analyze::explain(id) {
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
        _ => {
            eprintln!("xtask: cannot run `{}`\n{USAGE}", args.join(" "));
            ExitCode::FAILURE
        }
    }
}
