//! The harness checks itself: every workload runs (shrunk) with no failed
//! operation, and the names in `BENCHMARK.json` are exactly the names the
//! runs emit.

use mvkv_benchmark::compare::{self, Verdict};
use mvkv_benchmark::e2e::{self, WorkloadResult};
use mvkv_benchmark::env::RunDir;
use mvkv_benchmark::json::Json;
use mvkv_benchmark::layers;
use mvkv_benchmark::plan::{self, DEFAULT_SEED, WORKLOADS};
use mvkv_benchmark::report::{self, RunInfo};

const SMOKE_SECONDS: f64 = 0.3;

/// `dram_bytes_per_key` reads a process-wide allocation counter, so the
/// tests that run workloads take turns.
static ONE_RUN_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("spec has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_dir(tag: &str) -> RunDir {
    let base = std::env::temp_dir().join(format!("mvkv-benchmark-selftest-{tag}"));
    RunDir::create(&base, 1 << 30, true).expect("run directory")
}

fn smoke_run(workload: &str, seed: u64, dir: &RunDir) -> WorkloadResult {
    let plan = plan::generate(workload, seed, true).expect("known workload");
    plan::check_fingerprint(&plan, seed, true).expect("stream matches fingerprints.lock");
    e2e::run_workload(&plan, seed, SMOKE_SECONDS, dir).expect("run completes")
}

#[test]
fn every_workload_passes_and_emits_exactly_the_end_to_end_names() {
    let _turn = turn();
    let spec = spec();
    let want = names(&spec, "end_to_end");
    let dir = run_dir("e2e");
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let r = smoke_run(workload, DEFAULT_SEED, &dir);
        assert!(r.checks.attempted > 0, "{workload}: nothing was checked");
        assert_eq!(r.checks.failed, 0, "{workload}: {:?}", r.checks.examples);
        let got: Vec<(String, String)> = r
            .metrics
            .iter()
            .filter(|m| m.bounded)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{workload}: emitted names and units differ from BENCHMARK.json");
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}.{} = {}", m.name, m.value);
            assert!(m.cycles.len() == e2e::CYCLES || m.cycles.len() == 1, "{workload}.{}", m.name);
        }
        results.push(r);
    }

    // The results file round-trips through `compare`: a run against itself
    // regresses nowhere.
    let info = RunInfo { kind: "run", seed: DEFAULT_SEED, seconds: SMOKE_SECONDS, smoke: true };
    let doc = Json::parse(&report::run_json(&info, &results).to_string()).unwrap();
    for key in ["seed", "nproc", "git_commit", "cycles", "seconds"] {
        assert!(doc.get(key).is_some(), "results file lacks {key}");
    }
    let same = compare::compare(&spec, &doc, &doc).unwrap();
    assert_eq!(same.rows.len(), WORKLOADS.len() * want.len());
    assert_eq!(same.count(Verdict::Regressed) + same.count(Verdict::Improved), 0);
    assert!(!same.regressed());
}

#[test]
fn a_second_seed_passes_too_and_is_not_held_to_the_lock() {
    let _turn = turn();
    let dir = run_dir("seed7");
    for workload in WORKLOADS {
        let r = smoke_run(workload, 7, &dir);
        assert_eq!(r.checks.failed, 0, "{workload}: {:?}", r.checks.examples);
    }
}

#[test]
fn every_workload_traces_and_emits_exactly_the_per_layer_names() {
    let _turn = turn();
    let spec = spec();
    let want = names(&spec, "per_layer");
    let dir = run_dir("trace");
    let spans = dir.file("trace.jsonl");
    for workload in WORKLOADS {
        let plan = plan::generate(workload, DEFAULT_SEED, true).unwrap();
        let r = layers::trace_workload(&plan, SMOKE_SECONDS, &dir).expect("trace completes");
        assert!(r.checks.attempted > 0, "{workload}: nothing was checked");
        assert_eq!(r.checks.failed, 0, "{workload}: {:?}", r.checks.examples);
        let got: Vec<(String, String)> =
            r.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
        assert_eq!(got, want, "{workload}: emitted names and units differ from BENCHMARK.json");
        assert!(
            r.metrics.iter().all(|m| m.value.is_finite()),
            "{workload}: a metric is not a number"
        );

        // The layers reconcile with the end-to-end mean by construction.
        for a in &r.attributions {
            let layers: f64 = a.layers.iter().map(|s| s.ns_per_op).sum();
            assert!((layers + a.residual_ns() - a.end_to_end_ns).abs() < 1e-6);
        }
        r.tracer.write_jsonl(&spans).unwrap();
    }
    // Spans: every child names a pass of the same layer that contains it.
    let text = std::fs::read_to_string(&spans).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(lines.len() > 100);
    assert!(lines.iter().any(|l| l.get("parent") == Some(&Json::Null)));
    assert!(lines.iter().any(|l| l.get("parent").and_then(Json::as_f64).is_some()));
}

#[test]
fn benchmark_json_keeps_to_the_contract() {
    let spec = spec();
    let keys: Vec<&str> = spec.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let legal = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = names(&spec, "workloads");
    let (e2e_names, layer_names) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e_names.len()));
    assert!((1..=128).contains(&layer_names.len()));
    let listed: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(listed, WORKLOADS);
    let mut all: Vec<&str> =
        workloads.iter().chain(&e2e_names).chain(&layer_names).map(|(n, _)| n.as_str()).collect();
    assert!(all.iter().all(|n| legal(n)), "a name breaks [A-Za-z0-9][A-Za-z0-9_.-]*");
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "a name is used twice");
    for (_, unit) in e2e_names.iter().chain(&layer_names) {
        assert!(
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    for w in spec.get("workloads").and_then(Json::as_arr).unwrap() {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let rules = compare::rules(&spec).unwrap();
    assert!(rules.iter().all(|r| (0.0..=0.25).contains(&r.bound)));
    // The harness picks each metric's best cycle by the direction it has
    // compiled in; the spec must say the same.
    let compiled: Vec<(&str, bool)> = e2e::METRICS
        .iter()
        .filter(|m| m.bounded)
        .map(|m| (m.name, m.better == e2e::Better::Higher))
        .collect();
    let declared: Vec<(&str, bool)> =
        rules.iter().map(|r| (r.name.as_str(), r.higher_is_better)).collect();
    assert_eq!(compiled, declared);
    let setup = rules.iter().find(|r| r.name == "setup_s").expect("setup_s is required");
    assert!(!setup.higher_is_better);
    assert!(rules.iter().all(|r| r.bound <= setup.bound), "setup_s gets the largest bound");

    for m in e2e::METRICS.iter().filter(|m| !m.bounded) {
        let name = format!("core.{}", m.name);
        assert!(
            layer_names.iter().any(|(n, u)| *n == name && u == m.unit),
            "{name} is not per-layer"
        );
    }

    let seconds = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command: Vec<&str> = spec
        .get("command")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert!(
        command.len() <= 32
            && command.iter().all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
    );
    let paths: Vec<&str> = spec
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
