//! `mvkv-benchmark`: `run` (end-to-end, tracing off), `trace` (per layer),
//! `compare A.json B.json`, and `one`, the single run the driver of
//! `BENCHMARK.json` makes.

use mvkv_benchmark::compare;
use mvkv_benchmark::e2e::{self, WorkloadResult};
use mvkv_benchmark::env::{self, RunDir};
use mvkv_benchmark::json::Json;
use mvkv_benchmark::layers::{self, TraceResult};
use mvkv_benchmark::plan::{self, DEFAULT_SEED, WORKLOADS};
use mvkv_benchmark::report::{self, RunInfo};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: mvkv-benchmark <command> [options]

  run      end-to-end metrics of every workload, tracing off
  trace    per-layer metrics, attribution tables and trace.jsonl
  compare  A.json B.json: judge B against A by the bounds in BENCHMARK.json
  one      one workload, one JSON line (the BENCHMARK.json command)
  fingerprints   print the lines of fingerprints.lock for this build

options of run, trace and one:
  --workload NAME   one of the five workloads (default: all; required by one)
  --seed N          workload seed, decimal or 0x hex (default 0x5EED2022)
  --seconds S       measuring time per workload (default 10; 0.4 with --smoke)
  --dir DIR         where pool files go (default: beside the executable;
                    the paper's emulation is --dir /dev/shm)
  --out FILE        results file (default: results/<command>.json beside the
                    executable; trace.jsonl goes next to it)
  --smoke           sizes shrunk about a hundredfold
  --aa              run: measure the set twice and compare the two
  --trace 0|1       one: 0 end-to-end metrics, 1 per-layer metrics
options of compare:
  --spec FILE       the BENCHMARK.json to take directions and bounds from
";

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    aa: bool,
    trace: bool,
    spec: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("not a number: {text}"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        dir: None,
        out: None,
        smoke: false,
        aa: false,
        trace: false,
        spec: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; there are {WORKLOADS:?}"));
                }
                o.workloads.push(name.clone());
            }
            "--seed" => o.seed = parse_u64(value()?)?,
            "--seconds" => {
                let s: f64 =
                    value()?.parse().map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                o.seconds = Some(s);
            }
            "--dir" => o.dir = Some(PathBuf::from(value()?)),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--spec" => o.spec = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--aa" => o.aa = true,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => o.files.push(PathBuf::from(file)),
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.4 } else { 10.0 })
    }

    fn workloads(&self) -> Vec<&str> {
        if self.workloads.is_empty() {
            WORKLOADS.to_vec()
        } else {
            self.workloads.iter().map(String::as_str).collect()
        }
    }

    fn info(&self, kind: &'static str) -> RunInfo {
        RunInfo { kind, seed: self.seed, seconds: self.seconds(), smoke: self.smoke }
    }

    fn out(&self, kind: &str) -> PathBuf {
        self.out
            .clone()
            .unwrap_or_else(|| env::exe_dir().join("results").join(format!("{kind}.json")))
    }
}

/// Generates the plan of `name` and checks it against `fingerprints.lock`.
fn plan_of(o: &Options, name: &str) -> Result<plan::Plan, String> {
    let plan = plan::generate(name, o.seed, o.smoke).expect("workload names are checked");
    plan::check_fingerprint(&plan, o.seed, o.smoke)?;
    Ok(plan)
}

/// Checks every stream before anything runs (a drifted generator aborts the
/// whole set) and creates the run directory, sized for the largest pool.
/// Plans are generated again one at a time when their workload runs, so a set
/// never holds five plans (some 200 MB of operations) while it measures one,
/// and a workload meets the same process alone or in a set.
fn prepare(o: &Options, may_leave: bool) -> Result<RunDir, String> {
    let mut need = 0;
    for name in o.workloads() {
        // The traced run keeps the store's pool and the layers' pool side by
        // side.
        need = need.max(2 * plan_of(o, name)?.pool_bytes as u64 + (64 << 20));
    }
    let dir = o.dir.clone().unwrap_or_else(env::exe_dir);
    RunDir::create(&dir, need, may_leave)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_set(o: &Options, dir: &RunDir) -> Result<Vec<WorkloadResult>, String> {
    o.workloads()
        .into_iter()
        .map(|name| {
            let result = e2e::run_workload(&plan_of(o, name)?, o.seed, o.seconds(), dir)?;
            report::print_run(&result);
            Ok(result)
        })
        .collect()
}

fn load_spec(o: &Options) -> Result<Json, String> {
    let candidates = match &o.spec {
        Some(path) => vec![path.clone()],
        None => vec![
            PathBuf::from("BENCHMARK.json"),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        ],
    };
    for path in &candidates {
        if let Ok(text) = std::fs::read_to_string(path) {
            return Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()));
        }
    }
    Err(format!("no BENCHMARK.json at {candidates:?}; name it with --spec"))
}

fn cmd_run(o: &Options) -> Result<bool, String> {
    let dir = prepare(o, true)?;
    println!(
        "seed {:#x}, {} s per workload, {} cycles, nproc {}, pools in {}",
        o.seed,
        o.seconds(),
        e2e::CYCLES,
        env::nproc(),
        dir.path().display()
    );
    let first = run_set(o, &dir)?;
    let doc = report::run_json(&o.info("run"), &first);
    let out = o.out("run");
    write_file(&out, &format!("{doc}\n"))?;
    println!("\nresults written to {}", out.display());
    let mut ok = first.iter().all(|r| r.checks.failed == 0);
    if o.aa {
        println!("\nA/A: the same set once more");
        let second = run_set(o, &dir)?;
        ok &= second.iter().all(|r| r.checks.failed == 0);
        let doc2 = report::run_json(&o.info("run"), &second);
        write_file(&out.with_extension("aa.json"), &format!("{doc2}\n"))?;
        let comparison = compare::compare(&load_spec(o)?, &doc, &doc2)?;
        println!();
        compare::print(&comparison);
        ok &= !comparison.regressed() && comparison.count(compare::Verdict::Unresolved) == 0;
    }
    Ok(ok)
}

fn trace_set(o: &Options, dir: &RunDir, spans: &Path) -> Result<Vec<TraceResult>, String> {
    let _ = std::fs::remove_file(spans);
    o.workloads()
        .into_iter()
        .map(|name| {
            let result = layers::trace_workload(&plan_of(o, name)?, o.seconds(), dir)?;
            result.tracer.write_jsonl(spans).map_err(|e| format!("{}: {e}", spans.display()))?;
            Ok(result)
        })
        .collect()
}

fn cmd_trace(o: &Options) -> Result<bool, String> {
    let dir = prepare(o, true)?;
    let out = o.out("trace");
    let spans = out.with_extension("jsonl");
    write_file(&out, "")?;
    let results = trace_set(o, &dir, &spans)?;
    results.iter().for_each(layers::print_trace);
    write_file(&out, &format!("{}\n", report::trace_json(&o.info("trace"), &results)))?;
    println!("\nresults written to {}, spans to {}", out.display(), spans.display());
    Ok(results.iter().all(|r| r.checks.failed == 0))
}

/// The driver's run: no output but the one JSON line, nothing written outside
/// the build directory.
fn cmd_one(o: &Options) -> Result<bool, String> {
    if o.workloads.len() != 1 {
        return Err("one needs exactly one --workload".into());
    }
    let dir = prepare(o, false)?;
    let workload = o.workloads()[0];
    let line = if o.trace {
        let spans = env::exe_dir().join("results").join(format!("trace-{workload}.jsonl"));
        write_file(&spans, "")?;
        let results = trace_set(o, &dir, &spans)?;
        let r = &results[0];
        report::contract_line(&r.checks, r.metrics.iter().map(|m| (m.name, m.value, m.unit)))
    } else {
        let r = e2e::run_workload(&plan_of(o, workload)?, o.seed, o.seconds(), &dir)?;
        let bounded = r.metrics.iter().filter(|m| m.bounded);
        report::contract_line(&r.checks, bounded.map(|m| (m.name, m.value, m.unit)))
    };
    drop(dir);
    println!("{line}");
    Ok(true)
}

fn cmd_compare(o: &Options) -> Result<bool, String> {
    let [a, b] = o.files.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare::compare(&load_spec(o)?, &read(a)?, &read(b)?)?;
    compare::print(&comparison);
    Ok(!comparison.regressed())
}

fn cmd_fingerprints() -> Result<bool, String> {
    for smoke in [false, true] {
        for name in WORKLOADS {
            let plan = plan::generate(name, DEFAULT_SEED, smoke).expect("known workload");
            println!("{} {:016x}", plan::lock_name(name, smoke), plan.fingerprint());
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    env::pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|o| match command.as_str() {
        "run" => cmd_run(&o),
        "trace" => cmd_trace(&o),
        "one" => cmd_one(&o),
        "compare" => cmd_compare(&o),
        "fingerprints" => cmd_fingerprints(),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mvkv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
