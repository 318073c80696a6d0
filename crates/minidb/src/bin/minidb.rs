//! Tiny CLI for poking the embedded database engine.
//!
//! Runs a versioned insert/find/snapshot workload and prints a summary;
//! with `--metrics` it also dumps the process-wide obs registry in
//! Prometheus text form (build with `--features mvkv-obs/enabled` to collect
//! anything).
//!
//! ```text
//! minidb [--db PATH] [--n COUNT] [--metrics]
//! ```
//!
//! * `--db PATH` — file-backed database (plus `PATH.wal`); omitted = in-memory
//! * `--n COUNT` — rows to insert (default 10 000)
//! * `--metrics` — print the metrics snapshot after the workload

use mvkv_minidb::Database;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    db: Option<String>,
    n: u64,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { db: None, n: 10_000, metrics: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--db" => {
                args.db = Some(it.next().ok_or("--db requires a path")?);
            }
            "--n" => {
                let v = it.next().ok_or("--n requires a count")?;
                args.n = v.parse().map_err(|_| format!("bad count: {v}"))?;
            }
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                println!("usage: minidb [--db PATH] [--n COUNT] [--metrics]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("minidb: {e}");
            return ExitCode::FAILURE;
        }
    };

    let db = match &args.db {
        Some(path) => match Database::create_file(path) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("minidb: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Database::memory(),
    };
    let conn = db.connect();

    // Insert n rows, one version each (the paper's tag-per-op pattern),
    // overwriting every 4th key once so histories have depth.
    let start = Instant::now();
    let mut version = 0;
    let overwrites = (0..args.n).step_by(4).map(|i| (i, i * 3 + 1));
    for (key, value) in (0..args.n).map(|i| (i, i * 3)).chain(overwrites) {
        version += 1;
        if let Err(e) = conn.insert_row(version, key, value) {
            eprintln!("minidb: insert failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let insert_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut hits = 0u64;
    for i in 0..args.n {
        if conn.find(i, version).is_some() {
            hits += 1;
        }
    }
    let find_secs = start.elapsed().as_secs_f64();
    let snapshot_len = conn.snapshot(version).len();

    println!("minidb: backend={}", if args.db.is_some() { "file" } else { "memory" });
    let rows = conn.row_count();
    println!("minidb: rows={rows} versions={version} find_hits={hits} snapshot_len={snapshot_len}");
    println!(
        "minidb: insert {:.0} rows/s, find {:.0} lookups/s",
        (args.n + args.n / 4) as f64 / insert_secs,
        args.n as f64 / find_secs
    );

    if args.metrics {
        if mvkv_obs::is_enabled() {
            print!("{}", mvkv_obs::Registry::global().render_text());
        } else {
            eprintln!("minidb: obs layer compiled out; rebuild with --features mvkv-obs/enabled");
        }
    }
    ExitCode::SUCCESS
}
