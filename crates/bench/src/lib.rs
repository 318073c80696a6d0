//! Shared infrastructure for the figure-regeneration harnesses.
//!
//! Every harness in `benches/` reproduces one figure of the paper's
//! evaluation (§V). They print paper-style tables (`figure, approach,
//! x, metric, value`) and optionally append machine-readable JSON rows to
//! the file named by `MVKV_OUT`.
//!
//! Environment knobs (defaults sized for a CI box; the paper's parameters
//! in brackets):
//!
//! * `MVKV_BENCH_N` — operations per phase (default 20 000) [10^6]
//! * `MVKV_BENCH_T` — comma-separated thread counts (default `1,2,4,8`)
//!   [1..64]
//! * `MVKV_BENCH_NODES` — comma-separated simulated node counts for the
//!   horizontal experiments (default `2,4,8,16,32`) [8..512]
//! * `MVKV_BENCH_DIST_N` — pairs per node in horizontal experiments
//!   (default 5 000) [10^5]
//! * `MVKV_OUT` — JSON lines output path (optional; a path that cannot be
//!   appended to fails the run)

use mvkv_core::{DbStore, PSkipList, StoreSession, VersionedStore};
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Benchmark parameters (see crate docs for the env knobs).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub n: usize,
    pub threads: Vec<usize>,
    pub nodes: Vec<usize>,
    pub dist_n: usize,
    pub seed: u64,
}

impl BenchConfig {
    pub fn from_env() -> Self {
        let n = env_usize("MVKV_BENCH_N", 20_000);
        let threads = env_list("MVKV_BENCH_T", &[1, 2, 4, 8]);
        let nodes = env_list("MVKV_BENCH_NODES", &[2, 4, 8, 16, 32]);
        let dist_n = env_usize("MVKV_BENCH_DIST_N", 5_000);
        BenchConfig { n, threads, nodes, dist_n, seed: 0x5EED_2022 }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// One reported measurement.
#[derive(Debug, Clone)]
pub struct Row {
    pub figure: &'static str,
    pub approach: String,
    /// Thread count, node count, … (the figure's X axis).
    pub x: u64,
    pub metric: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The row's `MVKV_OUT` line: one flat JSON object. No field value needs
/// escaping (figure, metric and unit are literals, approach is a store name
/// plus ASCII suffixes), which `mvkv-report`'s field extractor relies on.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Row { figure, approach, x, metric, value, unit } = self;
        // JSON has no NaN/Inf.
        let value: &dyn fmt::Display = if value.is_finite() { value } else { &"null" };
        write!(f, r#"{{"figure":"{figure}","approach":"{approach}","x":{x},"#)?;
        write!(f, r#""metric":"{metric}","value":{value},"unit":"{unit}"}}"#)
    }
}

fn append_rows(path: &Path, rows: &[Row]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    rows.iter().try_for_each(|r| writeln!(f, "{r}"))
}

/// Prints the rows as an aligned table and appends JSON lines to
/// `MVKV_OUT` if set; a run that asked for rows and cannot write them fails.
pub fn report(figure: &'static str, title: &str, rows: &[Row]) {
    println!("\n=== {figure}: {title} ===");
    println!("{:<12} {:>8} {:<22} {:>14} {:<10}", "approach", "x", "metric", "value", "unit");
    for r in rows {
        println!(
            "{:<12} {:>8} {:<22} {:>14.4} {:<10}",
            r.approach, r.x, r.metric, r.value, r.unit
        );
    }
    if let Some(path) = std::env::var_os("MVKV_OUT") {
        if let Err(e) = append_rows(Path::new(&path), rows) {
            eprintln!("{figure}: cannot append rows to MVKV_OUT={}: {e}", path.to_string_lossy());
            std::process::exit(1);
        }
    }
    maybe_emit_metrics(figure);
}

/// True when the run asked for a metrics snapshot — `--metrics` anywhere on
/// the command line (cargo bench forwards unrecognized flags to the harness)
/// or `MVKV_METRICS=1` in the environment.
pub fn metrics_requested() -> bool {
    std::env::args().any(|a| a == "--metrics")
        || std::env::var("MVKV_METRICS").is_ok_and(|v| v == "1")
}

/// Prints the obs registry's text exposition after a figure's table when
/// requested. With the `obs` feature off this explains how to turn it on
/// instead of dumping an empty page.
fn maybe_emit_metrics(figure: &'static str) {
    if !metrics_requested() {
        return;
    }
    println!("\n--- {figure}: metrics snapshot (Prometheus text exposition) ---");
    if mvkv_obs::is_enabled() {
        print!("{}", mvkv_obs::Registry::global().render_text());
    } else {
        println!("# obs layer compiled out; re-run with --features obs to collect metrics");
    }
    println!("--- end metrics snapshot ---");
}

// ---------------------------------------------------------------------------
// Store construction
// ---------------------------------------------------------------------------

/// The five compared approaches (paper §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    PSkipList,
    ESkipList,
    LockedMap,
    DbReg,
    DbMem,
}

impl StoreKind {
    pub fn all() -> [StoreKind; 5] {
        [
            StoreKind::PSkipList,
            StoreKind::ESkipList,
            StoreKind::LockedMap,
            StoreKind::DbReg,
            StoreKind::DbMem,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            StoreKind::PSkipList => "PSkipList",
            StoreKind::ESkipList => "ESkipList",
            StoreKind::LockedMap => "LockedMap",
            StoreKind::DbReg => "DbReg",
            StoreKind::DbMem => "DbMem",
        }
    }
}

/// Directory for persistent artifacts: `/dev/shm` when available (the
/// paper's PM emulation mount), the system temp dir otherwise.
fn bench_dir() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let base = if shm.is_dir() { shm } else { std::env::temp_dir() };
    base.join(format!("mvkv-bench-{}", std::process::id()))
}

/// File paths removed on drop (pool and database files), and `bench_dir`
/// with them once it is empty.
pub struct TempArtifacts {
    paths: Vec<PathBuf>,
}

impl TempArtifacts {
    pub fn new() -> Self {
        TempArtifacts { paths: Vec::new() }
    }

    pub fn path(&mut self, name: &str) -> PathBuf {
        let dir = bench_dir();
        let _ = std::fs::create_dir_all(&dir);
        let p = dir.join(name);
        // Register the companion WAL too, in case the caller creates one.
        let mut wal = p.clone().into_os_string();
        wal.push(".wal");
        self.paths.push(PathBuf::from(wal));
        self.paths.push(p.clone());
        p
    }
}

impl Default for TempArtifacts {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TempArtifacts {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
        // Fails, as it should, while another `TempArtifacts` still has files.
        let _ = std::fs::remove_dir(bench_dir());
    }
}

/// Pool size heuristic: per-key persistent footprint (history block, one
/// later segment, chain pair, slack) times expected keys, plus headroom.
pub fn pool_bytes_for(keys: usize) -> usize {
    keys * 640 + (64 << 20)
}

/// Builds a PSkipList backed by a file under `bench_dir`.
pub fn make_pskiplist(keys: usize, arts: &mut TempArtifacts, tag: &str) -> PSkipList {
    let path = arts.path(&format!("pskiplist-{tag}.pool"));
    PSkipList::create_file(path, pool_bytes_for(keys)).expect("pool creation failed")
}

/// Builds a DbReg store backed by files under `bench_dir`.
pub fn make_dbreg(arts: &mut TempArtifacts, tag: &str) -> DbStore {
    let path = arts.path(&format!("dbreg-{tag}.db"));
    DbStore::reg(path).expect("db creation failed")
}

/// Runs a block with a freshly created store of the requested kind. The
/// block is monomorphized per store type (closures cannot be generic, so
/// this is a macro):
///
/// ```ignore
/// let elapsed = dispatch_store!(kind, n_keys, "fig2", |store| {
///     timed_phase(store, &work, |s, kv| { s.insert(kv.key, kv.value); })
/// });
/// ```
#[macro_export]
macro_rules! dispatch_store {
    ($kind:expr, $keys:expr, $tag:expr, |$store:ident| $body:expr) => {{
        let mut __arts = $crate::TempArtifacts::new();
        match $kind {
            $crate::StoreKind::PSkipList => {
                let __s = $crate::make_pskiplist($keys, &mut __arts, $tag);
                let $store = &__s;
                $body
            }
            $crate::StoreKind::ESkipList => {
                let __s = ::mvkv_core::ESkipList::new();
                let $store = &__s;
                $body
            }
            $crate::StoreKind::LockedMap => {
                let __s = ::mvkv_core::LockedMap::new();
                let $store = &__s;
                $body
            }
            $crate::StoreKind::DbReg => {
                let __s = $crate::make_dbreg(&mut __arts, $tag);
                let $store = &__s;
                $body
            }
            $crate::StoreKind::DbMem => {
                let __s = ::mvkv_core::DbStore::mem();
                let $store = &__s;
                $body
            }
        }
    }};
}

// ---------------------------------------------------------------------------
// Phase runners
// ---------------------------------------------------------------------------

/// Runs `f(session, item)` over per-thread work lists concurrently and
/// returns the wall time until all threads finish and all writes are
/// visible (the paper measures "the total time taken by all threads to
/// finish").
pub fn timed_phase<'s, S, T, F>(store: &'s S, work: &[Vec<T>], f: F) -> Duration
where
    S: VersionedStore + Sync,
    T: Sync,
    F: Fn(&S::Session<'s>, &T) + Sync,
{
    let f = &f;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for chunk in work {
            scope.spawn(move || {
                let session = store.session();
                for item in chunk {
                    f(&session, item);
                }
            });
        }
    });
    store.wait_writes_complete();
    start.elapsed()
}

/// Populates a store with the canonical paper state (§V-E): N unique
/// inserts, N removes of those keys, N more unique inserts → P = 2N keys.
/// Returns the generated workload for query construction.
pub fn build_canonical_state<S: VersionedStore + Sync>(
    store: &S,
    n: usize,
    build_threads: usize,
    seed: u64,
) -> mvkv_workload::scenario::GeneratedWorkload {
    let scenario = mvkv_workload::Scenario::new(n, build_threads, seed);
    let w = scenario.generate();
    timed_phase(store, &w.inserts_per_thread(), |s, kv| {
        s.insert(kv.key, kv.value);
    });
    timed_phase(store, &w.removals_per_thread(), |s, key| {
        s.remove(*key);
    });
    timed_phase(store, &w.second_inserts_per_thread(), |s, kv| {
        s.insert(kv.key, kv.value);
    });
    w
}

/// Convenience: seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------------
// Distributed setup (paper §V-H)
// ---------------------------------------------------------------------------

/// Builds a simulated cluster of `k` PSkipList ranks, rank `r` owning the
/// contiguous key range `[r·n, (r+1)·n)` with `value = key + 1`.
pub fn make_dist_pskiplist(
    k: usize,
    n: usize,
    arts: &mut TempArtifacts,
    tag: &str,
) -> mvkv_cluster::DistStore<PSkipList> {
    let ranks: Vec<PSkipList> = (0..k)
        .map(|r| {
            let path = arts.path(&format!("dist-{tag}-rank{r}.pool"));
            let store =
                PSkipList::create_file(path, n * 640 + (4 << 20)).expect("rank pool creation");
            populate_rank(&store, r, n);
            store
        })
        .collect();
    mvkv_cluster::DistStore::new(ranks, mvkv_cluster::NetModel::theta_like())
}

/// Builds a simulated cluster of `k` DbReg ranks with the same partitioning.
pub fn make_dist_dbreg(
    k: usize,
    n: usize,
    arts: &mut TempArtifacts,
    tag: &str,
) -> mvkv_cluster::DistStore<DbStore> {
    let ranks: Vec<DbStore> = (0..k)
        .map(|r| {
            let path = arts.path(&format!("dist-{tag}-rank{r}.db"));
            let store = DbStore::reg(path).expect("rank db creation");
            populate_rank(&store, r, n);
            store
        })
        .collect();
    mvkv_cluster::DistStore::new(ranks, mvkv_cluster::NetModel::theta_like())
}

fn populate_rank<S: VersionedStore>(store: &S, rank: usize, n: usize) {
    let session = store.session();
    let base = (rank * n) as u64;
    for i in 0..n as u64 {
        session.insert(base + i, base + i + 1);
    }
    store.wait_writes_complete();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64) -> Row {
        Row { figure: "figX", approach: "A".into(), x: 1, metric: "time", value, unit: "s" }
    }

    #[test]
    fn row_line_is_the_flat_object_mvkv_report_reads() {
        // The literal `tests/cli_smoke.rs` feeds to `mvkv-report`.
        assert_eq!(
            row(0.5).to_string(),
            r#"{"figure":"figX","approach":"A","x":1,"metric":"time","value":0.5,"unit":"s"}"#
        );
        assert!(row(f64::NAN).to_string().contains(r#""value":null,"#));
    }

    #[test]
    fn unwritable_out_path_is_an_error_and_temp_dir_goes_with_its_last_file() {
        let mut arts = TempArtifacts::new();
        let out = arts.path("rows.jsonl");
        let dir = out.parent().unwrap().to_path_buf();
        append_rows(&out, &[row(1.0), row(2.0)]).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 2);
        assert!(append_rows(&dir, &[row(1.0)]).is_err(), "a directory is not appendable");
        drop(arts);
        assert!(!dir.exists(), "{} left behind", dir.display());
    }
}
