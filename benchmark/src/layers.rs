//! The traced run: the per-layer ledger.
//!
//! Every layer is measured from outside, through its crate's public
//! functions, on a standalone instance built from the workload's own keys: a
//! `SkipList<u64>`, `History<PHistory>` objects in a `PmemPool`, a
//! `KeyChain`, a `VersionClock`. Each pass issues the same key sequence as
//! the corresponding pass over the whole store (`core.*`), one thread, in
//! traced batches of [`BATCH`] calls, so a layer's mean can be set against
//! the end-to-end mean and what no layer explains shows up as the residual.
//!
//! The writes that are attributed are the workload's characteristic ones:
//! the writes of its `main` stream on top of the whole preload, or the
//! preload itself when `main` only reads (the same choice as for
//! `fences_per_write`).

use crate::e2e::{finish_lazy_work, io_err, run_scans, verify_reads, Checks, REBUILD_THREADS};
use crate::env::{live_heap_bytes, RunDir};
use crate::exec::{exec, run_clocked, run_clocked_for, run_for, Cursor, Latencies, Tally};
use crate::oracle::Model;
use crate::plan::{Op, Plan, BATCH_PAIRS};
use crate::report::human;
use crate::stats::percentile;
use crate::trace::{PassStats, Tracer, BATCH};
use mvkv_core::{
    ESkipList, LabeledTags, LockedMap, PSkipList, StoreSession, VersionedStore, TOMBSTONE,
};
use mvkv_keychain::{rebuild_into, KeyChain, DEFAULT_BLOCK_CAP};
use mvkv_pmem::alloc::AllocStats;
use mvkv_pmem::{PPtr, PmemPool};
use mvkv_skiplist::SkipList;
use mvkv_vhistory::{Entry, History, PHistory, VersionClock};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The per-layer metrics, in reporting order, with their units.
/// `BENCHMARK.json` holds the same names plus a direction.
pub const METRICS: [(&str, &str); 60] = [
    ("skiplist.get_ns", "ns"),
    ("skiplist.insert_lookup_ns", "ns"),
    ("skiplist.insert_ns", "ns"),
    ("skiplist.seek_ns", "ns"),
    ("skiplist.iter_next_ns", "ns"),
    ("skiplist.dram_bytes_per_key", "B"),
    ("vhistory.find_ns", "ns"),
    ("vhistory.find_deep_ns", "ns"),
    ("vhistory.create_ns", "ns"),
    ("vhistory.append_ns", "ns"),
    ("vhistory.append_prepare_ns", "ns"),
    ("vhistory.publish_fence_ns", "ns"),
    ("vhistory.records_ns", "ns"),
    ("vhistory.clock_issue_complete_ns", "ns"),
    ("vhistory.clock_watermark_ns", "ns"),
    ("pmem.alloc_ns", "ns"),
    ("pmem.persist_ns", "ns"),
    ("pmem.fence_ns", "ns"),
    ("pmem.crc_ns", "ns"),
    ("pmem.allocs_per_write", "count"),
    ("pmem.heap_bytes_per_write", "B"),
    ("pmem.shard_hit_ratio", "ratio"),
    ("pmem.shard_refills", "count"),
    ("pmem.shard_steals", "count"),
    ("pmem.pool_create_s", "s"),
    ("keychain.append_ns", "ns"),
    ("keychain.iter_pairs_per_s", "pairs/s"),
    ("keychain.rebuild_keys_per_s", "keys/s"),
    ("core.find_ns", "ns"),
    ("core.find_residual_ns", "ns"),
    ("core.find_residual_share", "ratio"),
    ("core.find_p99_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.insert_residual_ns", "ns"),
    ("core.insert_residual_share", "ratio"),
    ("core.insert_p99_ns", "ns"),
    ("core.insert_batch_pairs_per_s", "pairs/s"),
    ("core.ops_per_s", "1/s"),
    ("core.scan_seek_ns", "ns"),
    ("core.scan_next_ns", "ns"),
    ("core.scan_pairs_per_s", "pairs/s"),
    ("core.extract_pairs_per_s", "pairs/s"),
    ("core.extract_history_ns", "ns"),
    ("core.tag_ns", "ns"),
    ("core.tag_labeled_ns", "ns"),
    ("core.wait_writes_ns", "ns"),
    ("core.find_hit_ratio", "ratio"),
    ("core.lost_key_races", "count"),
    ("core.restart_rebuild_s", "s"),
    ("core.restart_scan_s", "s"),
    ("core.restart_prune_s", "s"),
    ("core.rebuilt_keys", "count"),
    ("core.eskiplist_find_ns", "ns"),
    ("core.eskiplist_insert_ns", "ns"),
    ("core.lockedmap_find_ns", "ns"),
    ("core.lockedmap_insert_ns", "ns"),
    ("cluster.kway_merge_pairs_per_s", "pairs/s"),
    ("harness.clock_ns", "ns"),
    ("harness.loop_ns", "ns"),
    ("harness.trace_overhead_share", "ratio"),
];

/// Time-boxed passes of one traced run; each gets `seconds / TIMED_PASSES`.
const TIMED_PASSES: f64 = 20.0;

/// Calls of the fixed-size micro passes (`pmem.*`, clock, tags).
const MICRO_CALLS: usize = 1 << 16;

/// Shape of the fixed `vhistory.find_deep_ns` instance: the issue's
/// "depth 256, random version".
const DEEP_HISTORIES: usize = 1024;
const DEEP_DEPTH: u64 = 256;

#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Calls (or items) the value was measured over.
    pub calls: u64,
}

/// One line of an attribution table: a layer's time per end-to-end
/// operation.
#[derive(Debug, Clone)]
pub struct Share {
    pub what: &'static str,
    pub ns_per_op: f64,
}

pub struct Attribution {
    pub operation: &'static str,
    /// Mean of the end-to-end operation (`core.find_ns`, `core.insert_ns`).
    pub end_to_end_ns: f64,
    pub layers: Vec<Share>,
}

impl Attribution {
    pub fn residual_ns(&self) -> f64 {
        self.end_to_end_ns - self.layers.iter().map(|s| s.ns_per_op).sum::<f64>()
    }
}

pub struct TraceResult {
    pub workload: &'static str,
    pub fingerprint: u64,
    pub metrics: Vec<LayerMetric>,
    pub attributions: Vec<Attribution>,
    pub checks: Checks,
    pub tracer: Tracer,
}

impl TraceResult {
    pub fn metric(&self, name: &str) -> Option<&LayerMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A write, resolved before anything is timed: `id` numbers the distinct
/// keys in order of first appearance, `fresh` marks that first appearance.
#[derive(Clone, Copy)]
struct Write {
    key: u64,
    /// The value, or [`TOMBSTONE`] for a remove.
    value: u64,
    id: u32,
    fresh: bool,
}

/// A point read, resolved: `Latest` reads carry the final version.
#[derive(Clone, Copy)]
struct Read {
    key: u64,
    version: u64,
    id: u32,
}

struct Streams {
    /// Writes below the characteristic ones (the preload when `main`
    /// writes), replayed but not attributed.
    base: Vec<Write>,
    /// The characteristic writes.
    traced: Vec<Write>,
    reads: Vec<Read>,
    keys: usize,
}

fn resolve(plan: &Plan) -> Streams {
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut resolve_write = |op: &Op| {
        let (key, value) = match *op {
            Op::Put { key, value } => (key, value),
            Op::Remove { key } => (key, TOMBSTONE),
            _ => unreachable!("filtered to writes"),
        };
        let next = ids.len() as u32;
        let mut fresh = false;
        let id = *ids.entry(key).or_insert_with(|| {
            fresh = true;
            next
        });
        Write { key, value, id, fresh }
    };
    let (base, traced) = plan.characteristic_writes();
    let base: Vec<Write> = base.iter().map(&mut resolve_write).collect();
    let traced: Vec<Write> = traced.iter().map(&mut resolve_write).collect();
    let v_end = (base.len() + traced.len()) as u64;
    let reads = plan
        .reads()
        .map(|op| {
            let (key, version) = match *op {
                Op::Find { key, version } => (key, version),
                Op::Latest { key } => (key, v_end),
                _ => unreachable!("filtered to reads"),
            };
            Read { key, version, id: ids.get(&key).copied().unwrap_or(u32::MAX) }
        })
        .collect();
    Streams { base, traced, reads, keys: ids.len() }
}

struct Ledger {
    values: Vec<Option<(f64, u64)>>,
}

impl Ledger {
    fn new() -> Self {
        Ledger { values: vec![None; METRICS.len()] }
    }

    fn set(&mut self, name: &str, value: f64, calls: u64) {
        let i = METRICS.iter().position(|(n, _)| *n == name).expect("known metric name");
        self.values[i] = Some((value, calls));
    }

    fn mean(&mut self, name: &str, stats: PassStats) {
        self.set(name, stats.mean_ns(), stats.calls);
    }

    fn get(&self, name: &str) -> f64 {
        let i = METRICS.iter().position(|(n, _)| *n == name).expect("known metric name");
        self.values[i].unwrap_or_else(|| panic!("{name} read before it was measured")).0
    }

    fn finish(self) -> Vec<LayerMetric> {
        METRICS
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| {
                let (value, calls) = v.unwrap_or_else(|| panic!("{name} was never measured"));
                LayerMetric { name, unit, value, calls }
            })
            .collect()
    }
}

/// The characteristic writes hold no call of some kind (no fresh key among
/// pure updates): then the preload's calls of that kind stand in.
fn traced_or_base(traced: PassStats, base: PassStats) -> PassStats {
    if traced.calls > 0 {
        traced
    } else {
        base
    }
}

/// Unit arguments of the fixed-size micro passes.
const TICKS: [(); MICRO_CALLS] = [(); MICRO_CALLS];

/// Runs the traced passes of `plan` for about `seconds`.
pub fn trace_workload(plan: &Plan, seconds: f64, dir: &RunDir) -> Result<TraceResult, String> {
    let budget = Duration::from_secs_f64(seconds / TIMED_PASSES);
    let streams = resolve(plan);
    let mut tracer = Tracer::new(plan.workload);
    let mut ledger = Ledger::new();
    let mut checks = Checks::default();
    let writes = streams.traced.len() as f64;

    harness_passes(&mut tracer, &mut ledger, &streams);
    let sample = core_passes(plan, &streams, &mut tracer, &mut ledger, &mut checks, budget, dir)?;
    // The workload's own stream as one client would run it: its reads and
    // writes at their traced means.
    let main_ops = plan.main.iter().flatten().count() as f64;
    let main_writes = plan.main_writes() as f64;
    let main_ns = (main_ops - main_writes) * ledger.get("core.find_ns")
        + main_writes * ledger.get("core.insert_ns");
    ledger.set("core.ops_per_s", main_ops * 1e9 / main_ns, main_ops as u64);
    reference_passes(plan, &mut tracer, &mut ledger, budget);
    let index = skiplist_passes(plan, &streams, &mut tracer, &mut ledger, budget);
    let pm =
        pm_passes(plan, &streams, &mut tracer, &mut ledger, &mut checks, &sample, budget, dir)?;

    // What no layer explains. A find is one index lookup, one history
    // resolution and one watermark read; a write is an index lookup, for a
    // fresh key an index insert, a history and a chain link, then an append
    // and a version.
    let share = |what: &'static str, ns_per_op: f64| Share { what, ns_per_op };
    let watermark = ledger.get("vhistory.clock_watermark_ns");
    let find = Attribution {
        operation: "find",
        end_to_end_ns: ledger.get("core.find_ns"),
        layers: vec![
            share("skiplist.get_ns", ledger.get("skiplist.get_ns")),
            share("vhistory.find_ns", ledger.get("vhistory.find_ns")),
            share("vhistory.clock_watermark_ns", watermark),
        ],
    };
    let per_write = |s: PassStats| s.busy_ns as f64 / writes;
    let insert = Attribution {
        operation: "insert",
        end_to_end_ns: ledger.get("core.insert_ns"),
        layers: vec![
            share("skiplist.insert_lookup_ns", per_write(index.lookup)),
            share("skiplist.insert_ns x fresh share", per_write(index.insert)),
            share("vhistory.create_ns x fresh share", per_write(pm.create)),
            share("keychain.append_ns x fresh share", per_write(pm.link)),
            share("vhistory.append_ns", per_write(pm.append)),
            share(
                "vhistory.clock_issue_complete_ns",
                ledger.get("vhistory.clock_issue_complete_ns"),
            ),
        ],
    };
    for a in [&find, &insert] {
        let (ns, part) = (a.residual_ns(), a.residual_ns() / a.end_to_end_ns);
        ledger.set(&format!("core.{}_residual_ns", a.operation), ns, 0);
        ledger.set(&format!("core.{}_residual_share", a.operation), part, 0);
    }

    Ok(TraceResult {
        workload: plan.workload,
        fingerprint: plan.fingerprint(),
        metrics: ledger.finish(),
        attributions: vec![find, insert],
        checks,
        tracer,
    })
}

/// The harness's own costs: a clock read, and the read loop with nothing in
/// it.
fn harness_passes(tracer: &mut Tracer, ledger: &mut Ledger, streams: &Streams) {
    let clock = tracer.once("harness", "clock", &TICKS, |()| {
        black_box(Instant::now());
    });
    ledger.mean("harness.clock_ns", clock);
    let some = &streams.reads[..streams.reads.len().min(MICRO_CALLS)];
    let idle = tracer.once("harness", "loop", some, |r| {
        black_box((r.key, r.version));
    });
    ledger.mean("harness.loop_ns", idle);
}

/// Reads whose results are kept to hold the standalone histories against.
const MIRROR_SAMPLE: usize = 4096;

/// The whole store. Returns the results of the first [`MIRROR_SAMPLE`]
/// reads.
fn core_passes(
    plan: &Plan,
    streams: &Streams,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    checks: &mut Checks,
    budget: Duration,
    dir: &RunDir,
) -> Result<Vec<Option<u64>>, String> {
    let path = dir.file(&format!("{}.trace.pool", plan.workload));
    let store =
        PSkipList::create_file(&path, plan.pool_bytes).map_err(|e| io_err("create pool", e))?;
    let session = store.session();
    let put = |w: &Write| {
        if w.value == TOMBSTONE {
            session.remove(w.key);
        } else {
            session.insert(w.key, w.value);
        }
    };
    streams.base.iter().for_each(put);

    // The characteristic writes, and what the allocator did for them.
    let before = store.pool().alloc_stats();
    let insert = tracer.once("core", "insert", &streams.traced, put);
    let after = store.pool().alloc_stats();
    ledger.mean("core.insert_ns", insert);
    let writes = streams.traced.len() as u64;
    let allocs = after.total_allocs - before.total_allocs;
    let delta = |f: fn(&AllocStats) -> &Vec<u64>| {
        f(&after).iter().sum::<u64>() - f(&before).iter().sum::<u64>()
    };
    ledger.set("pmem.allocs_per_write", allocs as f64 / writes as f64, writes);
    let heap = after.heap_used - before.heap_used;
    ledger.set("pmem.heap_bytes_per_write", heap as f64 / writes as f64, writes);
    let hit_ratio = if allocs == 0 { 1.0 } else { delta(|s| &s.shard_hits) as f64 / allocs as f64 };
    ledger.set("pmem.shard_hit_ratio", hit_ratio, allocs);
    ledger.set("pmem.shard_refills", delta(|s| &s.shard_refills) as f64, allocs);
    ledger.set("pmem.shard_steals", delta(|s| &s.shard_steals) as f64, allocs);

    finish_lazy_work(&store);
    let wait = tracer.once("core", "wait_writes", &TICKS, |()| store.wait_writes_complete());
    ledger.mean("core.wait_writes_ns", wait);
    let tag = tracer.once("core", "tag", &TICKS, |()| {
        black_box(store.tag());
    });
    ledger.mean("core.tag_ns", tag);

    // Point reads: an untraced time-boxed pass as in the end-to-end run, then
    // the traced one. The difference in rate is what tracing costs.
    let read_ops: Vec<Op> =
        streams.reads.iter().map(|r| Op::Find { key: r.key, version: r.version }).collect();
    let mut cursor = Cursor::new(&read_ops);
    run_for(&store, &mut cursor, budget / 4);
    let t = Instant::now();
    let untraced = run_for(&store, &mut cursor, budget);
    let untraced_rate = untraced.ops as f64 / t.elapsed().as_secs_f64();
    let stats_before = store.op_stats();
    let found = tracer.cycling("core", "find", &streams.reads, budget, |r| {
        black_box(session.find(r.key, r.version));
    });
    let stats_after = store.op_stats();
    ledger.mean("core.find_ns", found);
    let mut latencies = Latencies::with_capacity(1 << 20);
    run_clocked_for(&store, &mut cursor, budget, &mut latencies, &mut Tally::default());
    let find_p99 = percentile(&mut latencies.find_ns, 99.0);
    ledger.set("core.find_p99_ns", find_p99 as f64, latencies.find_ns.len() as u64);
    let traced_rate = found.calls as f64 / (found.wall_ns as f64 / 1e9);
    ledger.set("harness.trace_overhead_share", 1.0 - traced_rate / untraced_rate, found.calls);
    let finds = stats_after.finds - stats_before.finds;
    let hits = stats_after.find_hits - stats_before.find_hits;
    ledger.set("core.find_hit_ratio", hits as f64 / finds.max(1) as f64, finds);
    let history = tracer.cycling("core", "extract_history", &streams.reads, budget, |r| {
        black_box(session.extract_history(r.key));
    });
    ledger.mean("core.extract_history_ns", history);

    // Scans: the seek alone, then seek and iteration; what the iteration
    // costs per pair is the difference.
    let version = plan.scan_version;
    let seek = tracer.cycling("core", "scan_seek", &plan.scans, budget, |&(lo, _)| {
        black_box(store.scan(version, lo));
    });
    ledger.mean("core.scan_seek_ns", seek);
    let mut pairs = 0u64;
    let scan = tracer.cycling("core", "scan", &plan.scans, budget, |scan| {
        pairs += run_scans(&store, version, &[*scan])
    });
    let next_ns = (scan.busy_ns as f64 - scan.calls as f64 * seek.mean_ns()) / pairs.max(1) as f64;
    ledger.set("core.scan_next_ns", next_ns, pairs);
    ledger.set("core.scan_pairs_per_s", pairs as f64 / (scan.busy_ns as f64 / 1e9), pairs);
    let mut extracted = 0u64;
    let extract = tracer.once("core", "extract_snapshot", &plan.extract_versions, |&v| {
        extracted += session.extract_snapshot(v).len() as u64
    });
    let extract_rate = extracted as f64 / (extract.busy_ns as f64 / 1e9);
    ledger.set("core.extract_pairs_per_s", extract_rate, extracted);

    verify_reads(&store, plan, &Model::of_cycle(plan), checks);
    let sample =
        streams.reads.iter().take(MIRROR_SAMPLE).map(|r| session.find(r.key, r.version)).collect();

    // The merge the cluster layer runs on gathered snapshots, on four range
    // slices of this store's newest snapshot.
    let snapshot = session.extract_snapshot(store.tag());
    let slices: Vec<Vec<(u64, u64)>> =
        snapshot.chunks(snapshot.len().div_ceil(4).max(1)).map(<[_]>::to_vec).collect();
    let (merged, merge) = tracer.single("cluster", "kway_merge", snapshot.len() as u64, || {
        mvkv_cluster::kway_merge(&slices)
    });
    checks.check(merged == snapshot, || {
        format!("{}: kway_merge of range slices differs from the snapshot", plan.workload)
    });
    let merge_rate = snapshot.len() as f64 / (merge.busy_ns as f64 / 1e9);
    ledger.set("cluster.kway_merge_pairs_per_s", merge_rate, snapshot.len() as u64);

    // Fresh keys, the first half one `insert` at a time with a clock read per
    // call, the second half by `insert_batch`: with `find_p99_ns`, the scan
    // and snapshot rates and `ops_per_s`, the `core.*` metrics named after
    // end-to-end ones are those too unsteady on this VM to carry a bound there.
    let (single, batched) = plan.batch_probe.split_at(plan.batch_probe.len() / 2);
    let single: Vec<Op> = single.iter().map(|&(key, value)| Op::Put { key, value }).collect();
    latencies.clear();
    run_clocked(&store, &single, &mut latencies, &mut Tally::default());
    let insert_p99 = percentile(&mut latencies.write_ns, 99.0);
    ledger.set("core.insert_p99_ns", insert_p99 as f64, single.len() as u64);
    let pass = tracer.open("core", "insert_batch");
    for chunk in batched.chunks(BATCH_PAIRS) {
        tracer.batch(pass, chunk.len() as u64, || {
            black_box(session.insert_batch(chunk));
        });
    }
    let batch = tracer.close(pass);
    let batch_rate = batch.calls as f64 / (batch.busy_ns as f64 / 1e9);
    ledger.set("core.insert_batch_pairs_per_s", batch_rate, batch.calls);
    let labels: Vec<u64> = (1..=4096).collect();
    let labeled = tracer.once("core", "tag_labeled", &labels, |&label| {
        black_box(store.tag_labeled(label));
    });
    ledger.mean("core.tag_labeled_ns", labeled);
    ledger.set("core.lost_key_races", store.op_stats().lost_key_races as f64, writes);

    // Close and reopen; the store times its own recovery phases.
    let (keys, tag) = (store.key_count(), store.tag());
    drop(store);
    let (reopened, _) =
        tracer.single("core", "restart", 1, || PSkipList::open_file(&path, REBUILD_THREADS));
    let (reopened, restart) = reopened.map_err(|e| io_err("reopen pool", e))?;
    checks.check(reopened.key_count() == keys && reopened.tag() == tag, || {
        format!(
            "{}: reopened with {} keys at version {}, closed with {keys} at {tag}",
            plan.workload,
            reopened.key_count(),
            reopened.tag()
        )
    });
    let rebuilt = restart.rebuilt_keys;
    ledger.set("core.restart_rebuild_s", restart.rebuild_time.as_secs_f64(), rebuilt);
    ledger.set("core.restart_scan_s", restart.scan_time.as_secs_f64(), rebuilt);
    ledger.set("core.restart_prune_s", restart.prune_time.as_secs_f64(), rebuilt);
    ledger.set("core.rebuilt_keys", rebuilt as f64, rebuilt);
    drop(reopened);
    std::fs::remove_file(&path).map_err(|e| io_err("remove pool", e))?;
    Ok(sample)
}

/// The same writes and reads on the stores the ROADMAP measures against:
/// the same index without persistent memory, and a locked `BTreeMap`.
fn reference_passes(plan: &Plan, tracer: &mut Tracer, ledger: &mut Ledger, budget: Duration) {
    fn passes<S: VersionedStore>(
        store: &S,
        plan: &Plan,
        tracer: &mut Tracer,
        budget: Duration,
        names: (&'static str, &'static str),
    ) -> (PassStats, PassStats) {
        let session = store.session();
        let mut tally = Tally::default();
        let (base, traced) = plan.characteristic_writes();
        base.iter().for_each(|op| exec(store, &session, op, &mut tally));
        let insert =
            tracer.once("core", names.0, &traced, |op| exec(store, &session, op, &mut tally));
        store.wait_writes_complete();
        let reads: Vec<Op> = plan.reads().copied().collect();
        let find = tracer
            .cycling("core", names.1, &reads, budget, |op| exec(store, &session, op, &mut tally));
        (insert, find)
    }
    let (insert, find) =
        passes(&ESkipList::new(), plan, tracer, budget, ("eskiplist_insert", "eskiplist_find"));
    ledger.mean("core.eskiplist_insert_ns", insert);
    ledger.mean("core.eskiplist_find_ns", find);
    let (insert, find) =
        passes(&LockedMap::new(), plan, tracer, budget, ("lockedmap_insert", "lockedmap_find"));
    ledger.mean("core.lockedmap_insert_ns", insert);
    ledger.mean("core.lockedmap_find_ns", find);
}

/// The index's part of the characteristic writes.
struct IndexOut {
    lookup: PassStats,
    insert: PassStats,
}

/// A standalone `SkipList<u64>` fed the store's key sequence.
fn skiplist_passes(
    plan: &Plan,
    streams: &Streams,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    budget: Duration,
) -> IndexOut {
    let heap_before = live_heap_bytes();
    let list: SkipList<u64> = SkipList::new();
    // As the store does for a write: look the key up, insert it when absent.
    // The two passes advance side by side, a batch of writes at a time.
    let mut fresh: Vec<Write> = Vec::with_capacity(BATCH);
    let mut replay = |names: (&'static str, &'static str), writes: &[Write]| {
        let (lookup, insert) = (tracer.open("skiplist", names.0), tracer.open("skiplist", names.1));
        for batch in writes.chunks(BATCH) {
            tracer.batch(lookup, batch.len() as u64, || {
                for w in batch {
                    black_box(list.get(&w.key));
                }
            });
            fresh.clear();
            fresh.extend(batch.iter().filter(|w| w.fresh).copied());
            tracer.batch(insert, fresh.len() as u64, || {
                for w in &fresh {
                    black_box(list.insert_with(w.key, || w.id as u64 + 1));
                }
            });
        }
        (tracer.close(lookup), tracer.close(insert))
    };
    let (base_lookup, base_insert) = replay(("base_lookup", "base_insert"), &streams.base);
    let (lookup, insert) = replay(("insert_lookup", "insert"), &streams.traced);
    let dram = (live_heap_bytes() - heap_before) as f64 / list.len().max(1) as f64;
    ledger.set("skiplist.dram_bytes_per_key", dram, list.len());
    ledger.mean("skiplist.insert_lookup_ns", traced_or_base(lookup, base_lookup));
    ledger.mean("skiplist.insert_ns", traced_or_base(insert, base_insert));

    let get = tracer.cycling("skiplist", "get", &streams.reads, budget, |r| {
        black_box(list.get(&r.key));
    });
    ledger.mean("skiplist.get_ns", get);
    let seek = tracer.cycling("skiplist", "seek", &plan.scans, budget, |(lo, _)| {
        black_box(list.range_from(lo).next());
    });
    ledger.mean("skiplist.seek_ns", seek);
    let mut items = 0u64;
    let walk = tracer.cycling("skiplist", "iter", &plan.scans, budget, |&(lo, len)| {
        for kv in list.range_from(&lo).take(len as usize) {
            black_box(kv);
            items += 1;
        }
    });
    let next_ns = (walk.busy_ns as f64 - walk.calls as f64 * seek.mean_ns()) / items.max(1) as f64;
    ledger.set("skiplist.iter_next_ns", next_ns, items);
    IndexOut { lookup, insert }
}

/// The persistent layers' part of the characteristic writes.
struct PmOut {
    create: PassStats,
    link: PassStats,
    append: PassStats,
}

/// Standalone histories, key chain, clock and allocator in a pool of their
/// own, fed the store's key sequence.
#[allow(clippy::too_many_arguments)]
fn pm_passes(
    plan: &Plan,
    streams: &Streams,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    checks: &mut Checks,
    sample: &[Option<u64>],
    budget: Duration,
    dir: &RunDir,
) -> Result<PmOut, String> {
    let path = dir.file(&format!("{}.layers.pool", plan.workload));
    // Room for the plan's data and for the fixed shapes below.
    let bytes = plan.pool_bytes + (32 << 20);
    let (pool, created) =
        tracer.single("pmem", "pool_create", 1, || PmemPool::create_file(&path, bytes));
    let pool = pool.map_err(|e| io_err("create layer pool", e))?;
    ledger.set("pmem.pool_create_s", created.busy_ns as f64 / 1e9, 1);
    let chain =
        KeyChain::create(&pool, DEFAULT_BLOCK_CAP).map_err(|e| io_err("create key chain", e))?;
    let history = |off: u64| History::new(PHistory::open(&pool, PPtr::from_off(off)));
    const ROOM: &str = "the layer pool is sized for the plan";

    // As the store does for a write: for a fresh key a history and a chain
    // link, then the append. Versions are the positions in the stream. The
    // three passes advance side by side, a batch of writes at a time.
    let mut offsets = vec![0u64; streams.keys];
    let mut version = 0u64;
    let mut fresh: Vec<Write> = Vec::with_capacity(BATCH);
    let mut replay = |names: [&'static str; 3], writes: &[Write]| {
        let create = tracer.open("vhistory", names[0]);
        let link = tracer.open("keychain", names[1]);
        let append = tracer.open("vhistory", names[2]);
        for batch in writes.chunks(BATCH) {
            fresh.clear();
            fresh.extend(batch.iter().filter(|w| w.fresh).copied());
            tracer.batch(create, fresh.len() as u64, || {
                for w in &fresh {
                    offsets[w.id as usize] = PHistory::create(&pool).expect(ROOM).pptr().off();
                }
            });
            tracer.batch(link, fresh.len() as u64, || {
                for w in &fresh {
                    chain.append(w.key, offsets[w.id as usize]).expect(ROOM);
                }
            });
            tracer.batch(append, batch.len() as u64, || {
                for w in batch {
                    version += 1;
                    history(offsets[w.id as usize]).append(version, w.value);
                }
            });
        }
        [tracer.close(create), tracer.close(link), tracer.close(append)]
    };
    let base = replay(["base_create", "base_append", "base_append"], &streams.base);
    let [create, link, append] = replay(["create", "append", "append"], &streams.traced);
    ledger.mean("vhistory.create_ns", traced_or_base(create, base[0]));
    ledger.mean("keychain.append_ns", traced_or_base(link, base[1]));
    ledger.mean("vhistory.append_ns", traced_or_base(append, base[2]));
    let fc = version;

    // The reads, resolved to their history. A key no write touched has no
    // history: the store answers it from the index alone.
    let resolved: Vec<(u64, u64)> = streams
        .reads
        .iter()
        .filter(|r| r.id != u32::MAX)
        .map(|r| (offsets[r.id as usize], r.version))
        .collect();
    for (r, want) in streams.reads.iter().zip(sample).filter(|(r, _)| r.id != u32::MAX) {
        let got = history(offsets[r.id as usize]).find(r.version, fc);
        checks.check(got == *want, || {
            format!(
                "{}: the standalone history of key {} answers {got:?}, the store {want:?}",
                plan.workload, r.key
            )
        });
    }
    // As in the store, reads are timed with the lazy tails already moved.
    offsets.iter().for_each(|&off| {
        history(off).extend_tail(fc);
    });
    let find = tracer.cycling("vhistory", "find", &resolved, budget, |&(off, version)| {
        black_box(history(off).find(version, fc));
    });
    ledger.mean("vhistory.find_ns", find);
    let records = tracer.cycling("vhistory", "records", &resolved, budget, |&(off, _)| {
        black_box(history(off).records(fc));
    });
    ledger.mean("vhistory.records_ns", records);

    let (pairs, iter) = tracer.single("keychain", "iter", chain.len(), || {
        chain.iter().fold(0u64, |n, pair| {
            black_box(pair);
            n + 1
        })
    });
    ledger.set("keychain.iter_pairs_per_s", pairs as f64 / (iter.busy_ns as f64 / 1e9), pairs);
    let (rebuilt, rebuild) = tracer.single("keychain", "rebuild", chain.len(), || {
        rebuild_into(&chain, REBUILD_THREADS, |key, hist| {
            black_box((key, hist));
        })
    });
    checks.check(rebuilt.pairs == pairs && pairs == streams.keys as u64, || {
        format!(
            "{}: the key chain holds {pairs} pairs, rebuild saw {}, the plan has {} keys",
            plan.workload, rebuilt.pairs, streams.keys
        )
    });
    let rebuild_rate = rebuilt.pairs as f64 / (rebuild.busy_ns as f64 / 1e9);
    ledger.set("keychain.rebuild_keys_per_s", rebuild_rate, rebuilt.pairs);

    // Fixed shapes, the same on every workload: deep histories, the two
    // halves of an append, and the substrate's primitives.
    let deep: Vec<u64> =
        (0..DEEP_HISTORIES).map(|_| PHistory::create(&pool).expect(ROOM).pptr().off()).collect();
    for v in 1..=DEEP_DEPTH {
        for &off in &deep {
            history(off).append(v, v);
        }
    }
    let mut rng = mvkv_workload::Mt19937_64::new(DEEP_DEPTH);
    let queries: Vec<(u64, u64)> = (0..MICRO_CALLS)
        .map(|_| (deep[rng.next_below(deep.len() as u64) as usize], 1 + rng.next_below(DEEP_DEPTH)))
        .collect();
    let find_deep = tracer.cycling("vhistory", "find_deep", &queries, budget, |&(off, version)| {
        black_box(history(off).find(version, DEEP_DEPTH));
    });
    ledger.mean("vhistory.find_deep_ns", find_deep);
    let prepare = tracer.open("vhistory", "append_prepare");
    let fence = tracer.open("vhistory", "publish_fence");
    let mut prepared = Vec::with_capacity(DEEP_HISTORIES);
    for round in 0..(MICRO_CALLS / DEEP_HISTORIES) as u64 {
        let v = DEEP_DEPTH + 1 + round;
        prepared.clear();
        tracer.batch(prepare, deep.len() as u64, || {
            prepared.extend(deep.iter().map(|&off| history(off).append_prepare(v, v)))
        });
        tracer.batch(fence, deep.len() as u64, || {
            deep.iter().for_each(|&off| history(off).publish_fence())
        });
        for (&off, &idx) in deep.iter().zip(&prepared) {
            history(off).append_publish(idx, v);
        }
    }
    ledger.mean("vhistory.append_prepare_ns", tracer.close(prepare));
    ledger.mean("vhistory.publish_fence_ns", tracer.close(fence));

    let clock = VersionClock::new();
    let issue =
        tracer.once("vhistory", "clock_issue_complete", &TICKS, |()| clock.complete(clock.issue()));
    ledger.mean("vhistory.clock_issue_complete_ns", issue);
    let watermark = tracer.once("vhistory", "clock_watermark", &TICKS, |()| {
        black_box(clock.watermark());
    });
    ledger.mean("vhistory.clock_watermark_ns", watermark);

    let mut blocks = Vec::with_capacity(MICRO_CALLS);
    let alloc = tracer.once("pmem", "alloc", &TICKS, |()| blocks.push(pool.alloc(32).expect(ROOM)));
    ledger.mean("pmem.alloc_ns", alloc);
    let persist = tracer.once("pmem", "persist", &blocks, |&off| pool.persist(off, 32));
    ledger.mean("pmem.persist_ns", persist);
    let fence = tracer.once("pmem", "fence", &TICKS, |()| pool.fence());
    ledger.mean("pmem.fence_ns", fence);
    let crc = tracer.once("pmem", "crc", &blocks, |&off| {
        black_box(Entry::expected_crc(black_box(off), black_box(off ^ 0x5555)));
    });
    ledger.mean("pmem.crc_ns", crc);

    drop(pool);
    std::fs::remove_file(&path).map_err(|e| io_err("remove layer pool", e))?;
    Ok(PmOut { create, link, append })
}

/// Prints the per-layer metrics and the attribution tables of one workload.
pub fn print_trace(r: &TraceResult) {
    println!("\n{} (stream {:016x}), per layer", r.workload, r.fingerprint);
    for m in &r.metrics {
        println!("  {:<34} {:>16} {:<8} over {}", m.name, human(m.value), m.unit, m.calls);
    }
    for a in &r.attributions {
        let total = a.end_to_end_ns;
        println!("\n  {} on {}: end-to-end mean {total:.1} ns", a.operation, r.workload);
        for s in &a.layers {
            let percent = 100.0 * s.ns_per_op / total;
            println!("    {:<34} {:>10.1} ns {percent:>6.1}%", s.what, s.ns_per_op);
        }
        let (rest, percent) = (a.residual_ns(), 100.0 * a.residual_ns() / total);
        println!(
            "    {:<34} {rest:>10.1} ns {percent:>6.1}%",
            "residual (core glue, shared caches)"
        );
    }
    let overhead = r.metric("harness.trace_overhead_share").map_or(0.0, |m| m.value);
    println!("  harness.trace_overhead_share {overhead:.4}");
    println!(
        "  {} of {} checked results disagree with the oracle",
        r.checks.failed, r.checks.attempted
    );
    for example in &r.checks.examples {
        println!("    FAILED {example}");
    }
}
