//! Results as text for people and as JSON for `compare` and the driver.

use crate::e2e::{Checks, WorkloadResult, CYCLES, REBUILD_THREADS};
use crate::json::Json;
use crate::layers::TraceResult;
use crate::{env, stats};

/// What a results file records about the run besides the numbers.
pub struct RunInfo {
    pub kind: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunInfo {
    fn header(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("schema", Json::Num(1.0)),
            ("kind", Json::str(self.kind)),
            ("seed", Json::str(format!("{:#x}", self.seed))),
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("cycles", Json::Num(CYCLES as f64)),
            ("rebuild_threads", Json::Num(REBUILD_THREADS as f64)),
            ("nproc", Json::Num(env::nproc() as f64)),
            ("git_commit", Json::str(env::git_commit())),
        ]
    }
}

fn failed_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The results file of `run`: per workload every end-to-end metric with its
/// best cycle, the cycles' median and quartiles, the cycle values and the
/// sample count.
pub fn run_json(info: &RunInfo, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let metrics = r.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("bounded", Json::Bool(m.bounded)),
                        ("median", Json::Num(m.median)),
                        ("q1", Json::Num(m.q1)),
                        ("q3", Json::Num(m.q3)),
                        ("cycles", Json::Arr(m.cycles.iter().map(|&v| Json::Num(v)).collect())),
                        ("samples_per_cycle", Json::Num(m.samples as f64)),
                    ]),
                )
            });
            Json::obj([
                ("name", Json::str(r.workload)),
                ("threads", Json::Num(r.threads as f64)),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                ("attempted", Json::Num(r.checks.attempted as f64)),
                ("failed", Json::Num(r.checks.failed as f64)),
                ("failed_op_share", Json::Num(failed_share(r.checks.attempted, r.checks.failed))),
                ("metrics", Json::obj(metrics)),
            ])
        })
        .collect();
    let mut fields = info.header();
    fields.push(("workloads", Json::Arr(workloads)));
    Json::obj(fields)
}

/// The results file of `trace`: per workload every per-layer metric.
pub fn trace_json(info: &RunInfo, results: &[TraceResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let metrics = r.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("calls", Json::Num(m.calls as f64)),
                    ]),
                )
            });
            Json::obj([
                ("name", Json::str(r.workload)),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                ("attempted", Json::Num(r.checks.attempted as f64)),
                ("failed", Json::Num(r.checks.failed as f64)),
                ("metrics", Json::obj(metrics)),
            ])
        })
        .collect();
    let mut fields = info.header();
    fields.push(("workloads", Json::Arr(workloads)));
    Json::obj(fields)
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`. What failed goes to stderr.
pub fn contract_line(
    checks: &Checks,
    metrics: impl Iterator<Item = (&'static str, f64, &'static str)>,
) -> Json {
    for example in &checks.examples {
        eprintln!("FAILED {example}");
    }
    Json::obj([
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.map(|(name, value, unit)| {
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })),
        ),
    ])
}

/// Prints every end-to-end metric by name with its unit, the spread between
/// the cycle quartiles, and the failed-operation share.
pub fn print_run(r: &WorkloadResult) {
    println!("\n{} (T={}, stream {:016x})", r.workload, r.threads, r.fingerprint);
    println!(
        "  {:<27} {:>14} {:<8} {:>14} {:>8}  {:>13}",
        "metric (* = unbounded)", "best cycle", "unit", "median cycle", "iqr/med", "samples/cycle"
    );
    for m in &r.metrics {
        println!(
            "  {:<27} {:>14} {:<8} {:>14} {:>7.1}%  {:>13}",
            format!("{}{}", m.name, if m.bounded { "" } else { " *" }),
            human(m.value),
            m.unit,
            human(m.median),
            100.0 * stats::spread(&m.cycles),
            m.samples
        );
    }
    println!(
        "  {:<27} {:>14} {:<8} ({} of {} checked results disagree with the oracle)",
        "failed_op_share",
        failed_share(r.checks.attempted, r.checks.failed),
        "ratio",
        r.checks.failed,
        r.checks.attempted
    );
    for example in &r.checks.examples {
        println!("    FAILED {example}");
    }
}

/// A number with the digits a reader needs: integers above 1000, three
/// decimals below.
pub fn human(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}
