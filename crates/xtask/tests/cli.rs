//! The command line is `analyze [--json] [--bless]` and `explain [ID]`.

use std::process::Command;

/// The waivers are gone: a stale CI line or script that still passes their
/// flags fails loudly instead of silently running everything.
#[test]
fn removed_flags_are_usage_errors() {
    for stale in [&["--only", "facade"][..], &["--baseline", "crates/xtask/analysis_baseline.json"]]
    {
        let out =
            Command::new(env!("CARGO_BIN_EXE_xtask")).arg("analyze").args(stale).output().unwrap();
        assert!(!out.status.success(), "{stale:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:") && err.contains(stale[0]), "{stale:?}: {err}");
        assert!(out.stdout.is_empty(), "{stale:?} must not reach the analysis");
    }
}

fn xtask(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask")).args(args).output().unwrap()
}

/// The analyzer runs four passes; `race-audit`, `fence-budget`,
/// `persist-ordering` and `lock-order` are not among them (how many fences
/// an operation costs, and whether it leaves a line unflushed, is measured
/// by `tests/cost_ledger.rs`; a nested facade lock or a fence under one
/// panics in a debug build).
#[test]
fn four_passes_and_no_race_audit_fence_budget_persist_ordering_or_lock_order() {
    const GONE: [&str; 4] = ["race-audit", "fence-budget", "persist-ordering", "lock-order"];
    for gone in GONE {
        let out = xtask(&["explain", gone]);
        assert_eq!(out.status.code(), Some(1), "{gone}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown check"), "{gone}");
    }

    let out = xtask(&["explain"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids = stdout.lines().next().and_then(|l| l.strip_prefix("checks: ")).unwrap();
    assert_eq!(ids, "facade, safety-comment, pm-layout, atomic-ordering");

    let out = xtask(&["analyze", "--json"]);
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"version\": 4"), "{json}");
    assert_eq!(json.matches("{\"name\": ").count(), 4, "{json}");
    assert!(GONE.iter().all(|gone| !json.contains(gone)), "{json}");
}
