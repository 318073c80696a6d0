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

/// The analyzer runs seven passes; `race-audit` is not one of them.
#[test]
fn seven_passes_and_no_race_audit() {
    let out = xtask(&["explain", "race-audit"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown check"));

    let out = xtask(&["explain"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids = stdout.lines().next().and_then(|l| l.strip_prefix("checks: ")).unwrap();
    assert_eq!(ids.split(", ").count(), 7, "{ids}");

    let out = xtask(&["analyze", "--json"]);
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"version\": 4"), "{json}");
    assert_eq!(json.matches("{\"name\": ").count(), 7, "{json}");
    assert!(!json.contains("race-audit"), "{json}");
}
