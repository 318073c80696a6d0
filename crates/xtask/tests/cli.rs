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
