//! Smoke test of the `minidb` CLI: an in-memory and a file-backed run, the
//! Prometheus text `--metrics` prints, and a refused flag.

use std::process::{Command, Output};

fn minidb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minidb")).args(args).output().expect("spawn minidb")
}

/// Runs `minidb --n 1000 --metrics` plus `extra`; returns its stdout.
fn run_ok(extra: &[&str]) -> String {
    let out = minidb(&[&["--n", "1000", "--metrics"], extra].concat());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("minidb: rows="), "{extra:?}:\n{stdout}");
    if mvkv_obs::is_enabled() {
        assert!(stdout.contains("mvkv_minidb_wal_commits_total"), "{extra:?}:\n{stdout}");
    }
    stdout
}

#[test]
fn minidb_cli_runs_in_memory_and_on_a_file() {
    assert!(run_ok(&[]).contains("minidb: backend=memory"));

    let dir = std::env::temp_dir().join(format!("mvkv-minidb-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("cli.db");
    let stdout = run_ok(&["--db", db.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(stdout.contains("minidb: backend=file"), "{stdout}");
}

#[test]
fn minidb_cli_refuses_an_unknown_flag() {
    let out = minidb(&["--json"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag: --json"));
}
