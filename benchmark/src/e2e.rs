//! The end-to-end run: what a caller of the store sees, with tracing off.
//!
//! One run is [`CYCLES`] identical cycles. A cycle builds the workload's
//! state in a fresh pool file and reads it once (`setup_s`), then runs every
//! phase against it: the workload's own closed loop without per-operation
//! clock reads (`ops_per_s`), the same loop with them (`find_*`/`insert_*`
//! latencies), then the probes for the operations the loop does not issue, a
//! snapshot round, the batch insert, and a close and reopen (`restart_s`,
//! `dram_bytes_per_key`). Within a cycle a rate is taken at the median of its
//! 1024-operation chunks, so a burst of interference from outside the process
//! costs a few chunks and not the cycle's value. Each reported value is that
//! of the best cycle; the median and quartiles of the cycles are kept beside
//! it. Read-only phases are time-boxed to a share of `--seconds`; phases that
//! write are fixed-size, so every cycle builds the same state and the counts
//! repeat.

use crate::env::{live_heap_bytes, RunDir};
use crate::exec::{
    exec, fan_out, run_clocked, run_clocked_for, run_for, run_ops, version_sum, Cursor, Latencies,
    Tally,
};
use crate::oracle::Model;
use crate::plan::{Op, Plan, BATCH_PAIRS};
use crate::stats::{median, percentile, quartiles};
use mvkv_core::{PSkipList, Pair, StoreSession, VersionedStore};
use mvkv_pmem::CrashOptions;
use mvkv_workload::{derive_seed, Mt19937_64};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of the whole cycle; the best one is reported.
pub const CYCLES: usize = 7;

/// Threads `open_file` rebuilds the index with.
pub const REBUILD_THREADS: usize = 2;

/// Writes replayed on the crash-simulation pool for the two count metrics.
pub const REPLAY_WRITES: usize = 1 << 16;

/// Shares of one cycle's time budget given to the time-boxed phases. The
/// rest is left to the fixed-size ones (snapshots, write probes, reopen).
const SHARE_WARM: f64 = 0.04;
const SHARE_THROUGHPUT: f64 = 0.22;
const SHARE_LATENCY: f64 = 0.22;
const SHARE_FIND_PROBE: f64 = 0.15;
const SHARE_SCAN_WARM: f64 = 0.06;
const SHARE_SCAN: f64 = 0.12;

/// `scan` calls between two clock reads.
const SCAN_CHUNK: usize = 64;

/// Latency samples one client thread can record per cycle and kind.
const LATENCY_CAP: usize = 1 << 20;

/// Which way a metric is better, hence which cycle is its best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: name, unit, direction, and whether it is steady
/// enough on this VM to carry a bound.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Bounded metrics are the `end_to_end` list of `BENCHMARK.json` and what
    /// `one --trace 0` prints. The others are measured and printed by `run`
    /// all the same, but sets of ten runs of unchanged code spread them, or
    /// moved their median, by more than the largest bound the driver accepts
    /// (0.25), so `BENCHMARK.json` carries them unbounded, in the per-layer
    /// list, as `core.<name>`. See the README for the measurements.
    pub bounded: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bounded: bool) -> MetricDef {
    MetricDef { name, unit, better, bounded }
}

/// The end-to-end metrics, in reporting order.
pub const METRICS: [MetricDef; 13] = [
    def("setup_s", "s", Better::Lower, true),
    // Rates at the median 1024-operation chunk: a chunk lasts a millisecond,
    // long enough for a burst on the sibling hyperthread to land in most.
    def("ops_per_s", "1/s", Better::Higher, false),
    def("find_p50_ns", "ns", Better::Lower, true),
    // Tails double while a neighbour of this VM is busy.
    def("find_p99_ns", "ns", Better::Lower, false),
    def("insert_p50_ns", "ns", Better::Lower, true),
    def("insert_p99_ns", "ns", Better::Lower, false),
    def("insert_batch_pairs_per_s", "pairs/s", Better::Higher, false),
    // Level-0 walks with one dependent cache miss per key: they follow the
    // host's shared L3 and memory, which drift by tens of percent over
    // minutes.
    def("scan_pairs_per_s", "pairs/s", Better::Higher, false),
    def("extract_pairs_per_s", "pairs/s", Better::Higher, false),
    def("restart_s", "s", Better::Lower, true),
    def("fences_per_write", "count", Better::Lower, true),
    def("pm_bytes_per_user_byte", "ratio", Better::Lower, true),
    def("dram_bytes_per_key", "B", Better::Lower, true),
];

/// Outcome of comparing results with the oracle: `failed_op_share` is
/// `failed / attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few disagreements, for the report.
    pub examples: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 8 {
                self.examples.push(what());
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether `BENCHMARK.json` bounds it (see [`MetricDef::bounded`]).
    pub bounded: bool,
    /// The best cycle: the lowest time, the highest rate. Interference from
    /// outside the process only ever makes a cycle worse, so the best one is
    /// the least disturbed and by far the most repeatable.
    pub value: f64,
    /// Median and quartiles over the cycles: what `compare` takes as the
    /// run's own spread.
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The cycle values behind the median, in cycle order.
    pub cycles: Vec<f64>,
    /// Operations (or latency samples) behind one cycle's value.
    pub samples: u64,
}

pub struct WorkloadResult {
    pub workload: &'static str,
    pub threads: usize,
    pub fingerprint: u64,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
}

/// Per-cycle values of one metric and the sample count behind each.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    samples: u64,
}

struct Recorder {
    series: Vec<Series>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { series: METRICS.iter().map(|_| Series::default()).collect() }
    }

    fn push(&mut self, name: &str, value: f64, samples: u64) {
        let i = METRICS.iter().position(|m| m.name == name).expect("known metric name");
        self.series[i].values.push(value);
        self.series[i].samples = samples;
    }

    fn finish(self) -> Vec<Metric> {
        METRICS
            .iter()
            .zip(self.series)
            .map(|(def, s)| {
                let MetricDef { name, unit, better, bounded } = *def;
                assert!(!s.values.is_empty(), "{name} was never measured");
                let (q1, q3) = quartiles(&s.values);
                let best = match better {
                    Better::Lower => s.values.iter().copied().fold(f64::INFINITY, f64::min),
                    Better::Higher => s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                };
                Metric {
                    name,
                    unit,
                    bounded,
                    value: best,
                    median: median(&s.values),
                    q1,
                    q3,
                    samples: s.samples,
                    cycles: s.values,
                }
            })
            .collect()
    }
}

/// Units per second at the median of per-chunk `ns per unit` samples.
fn per_second(chunk_ns_per_unit: &[f64]) -> f64 {
    1e9 / median(chunk_ns_per_unit)
}

/// One client thread of the closed loop: its stream, where it stands in it,
/// and its latency samples.
struct Client<'a> {
    ops: &'a [Op],
    cursor: Cursor<'a>,
    lat: Latencies,
}

pub(crate) fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// `scan(version, lo).take(len)` over `scans`, folding every pair so the
/// iterator cannot be optimised away. Returns the pairs yielded.
pub fn run_scans(store: &PSkipList, version: u64, scans: &[(u64, u32)]) -> u64 {
    let mut pairs = 0u64;
    let mut fold = 0u64;
    for &(lo, len) in scans {
        for (k, v) in store.scan(version, lo).take(len as usize) {
            fold ^= k ^ v;
            pairs += 1;
        }
    }
    black_box(fold);
    pairs
}

/// Reads every key once at the newest snapshot. Writes leave each history's
/// visible tail behind (the paper's lazy tail); the first read of a key pays
/// for moving it. Done after every write phase and before any read is timed,
/// so reads are measured in the steady state whatever order and length the
/// time-boxed phases have, and counted into `setup_s`, so that work a change
/// defers from loading to first read still shows.
pub(crate) fn finish_lazy_work(store: &PSkipList) {
    black_box(store.session().extract_snapshot(store.tag()));
}

/// Runs the end-to-end cycles of `plan` for about `seconds` of measuring.
pub fn run_workload(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    dir: &RunDir,
) -> Result<WorkloadResult, String> {
    let budget = seconds / CYCLES as f64;
    let share = |s: f64| Duration::from_secs_f64(budget * s);
    let mut rec = Recorder::new();
    let mut checks = Checks::default();
    let model = Model::of_cycle(plan);
    let path = dir.file(&format!("{}.pool", plan.workload));
    let main_writes = plan.main_writes();
    let mut clients: Vec<Client> = plan
        .main
        .iter()
        .map(|ops| Client {
            ops,
            cursor: Cursor::new(ops),
            lat: Latencies::with_capacity(LATENCY_CAP),
        })
        .collect();

    for cycle in 0..CYCLES {
        let last = cycle + 1 == CYCLES;
        for c in &mut clients {
            c.cursor = Cursor::new(c.ops);
            c.lat.clear();
        }

        // Set-up: pool, store, state.
        let t = Instant::now();
        let store =
            PSkipList::create_file(&path, plan.pool_bytes).map_err(|e| io_err("create pool", e))?;
        let preload = run_ops(&store, &plan.preload);
        store.wait_writes_complete();
        finish_lazy_work(&store);
        rec.push("setup_s", t.elapsed().as_secs_f64(), plan.preload.len() as u64);
        checks.check(preload.tally.version_sum == version_sum(1, plan.v_pre()), || {
            format!("{}: preload was not assigned versions 1..={}", plan.workload, plan.v_pre())
        });

        // The workload's own loop: a pass without per-operation clock reads
        // for throughput, then a pass with them for latency.
        let passes = if main_writes > 0 {
            let first = fan_out(&mut clients, |_, c| run_ops(&store, &c.ops[..c.ops.len() / 2]));
            let second = fan_out(&mut clients, |_, c| {
                let mut tally = Tally::default();
                run_clocked(&store, &c.ops[c.ops.len() / 2..], &mut c.lat, &mut tally);
                tally
            });
            store.wait_writes_complete();
            finish_lazy_work(&store);
            let mut tally = Tally::default();
            first.iter().map(|p| p.tally).chain(second).for_each(|t| tally.merge(t));
            let (from, to) = (plan.v_pre() + 1, plan.v_main());
            checks.check(tally.version_sum == version_sum(from, to), || {
                format!("{}: main writes were not assigned versions {from}..={to}", plan.workload)
            });
            first
        } else {
            fan_out(&mut clients, |_, c| run_for(&store, &mut c.cursor, share(SHARE_WARM)));
            let passes = fan_out(&mut clients, |_, c| {
                run_for(&store, &mut c.cursor, share(SHARE_THROUGHPUT))
            });
            fan_out(&mut clients, |_, c| {
                let budget = share(SHARE_LATENCY);
                run_clocked_for(&store, &mut c.cursor, budget, &mut c.lat, &mut Tally::default())
            });
            passes
        };
        // Every client's median chunk, clients side by side.
        let ops: u64 = passes.iter().map(|p| p.ops).sum();
        let rate: f64 = passes.iter().map(|p| per_second(&p.chunk_ns_per_op)).sum();
        rec.push("ops_per_s", rate, ops);

        // Point reads, when the loop above issued none.
        if !plan.find_probe.is_empty() {
            let mut cursor = Cursor::new(&plan.find_probe);
            let lat = &mut clients[0].lat;
            run_for(&store, &mut cursor, share(SHARE_WARM));
            run_clocked_for(
                &store,
                &mut cursor,
                share(SHARE_FIND_PROBE),
                lat,
                &mut Tally::default(),
            );
        }

        // Short ordered scans (YCSB-E shape), timed SCAN_CHUNK calls at a time.
        {
            let mut chunks = plan.scans.chunks(SCAN_CHUNK).cycle();
            let start = Instant::now();
            while start.elapsed() < share(SHARE_SCAN_WARM) {
                run_scans(&store, plan.scan_version, chunks.next().expect("scans is not empty"));
            }
            let start = Instant::now();
            let (mut pairs, mut ns_per_pair) = (0u64, Vec::new());
            while start.elapsed() < share(SHARE_SCAN) {
                let chunk = chunks.next().expect("scans is not empty");
                let t = Instant::now();
                let n = run_scans(&store, plan.scan_version, chunk);
                ns_per_pair.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
                pairs += n;
            }
            rec.push("scan_pairs_per_s", per_second(&ns_per_pair), pairs);
        }

        // One snapshot per planned version; the vectors are dropped after
        // the clock stops, as a caller would keep them.
        {
            let session = store.session();
            let start = Instant::now();
            let snaps: Vec<Vec<Pair>> =
                plan.extract_versions.iter().map(|&v| session.extract_snapshot(v)).collect();
            let elapsed = start.elapsed();
            let pairs: usize = snaps.iter().map(Vec::len).sum();
            rec.push("extract_pairs_per_s", pairs as f64 / elapsed.as_secs_f64(), pairs as u64);
        }

        if last {
            verify_reads(&store, plan, &model, &mut checks);
        }

        // Writes of fresh keys, when the loop above issued none.
        if !plan.write_probe.is_empty() {
            let mut tally = Tally::default();
            run_clocked(&store, &plan.write_probe, &mut clients[0].lat, &mut tally);
            let first = plan.v_main() + 1;
            let lastv = plan.v_main() + plan.write_probe.len() as u64;
            checks.check(tally.version_sum == version_sum(first, lastv), || {
                format!(
                    "{}: write probe was not assigned versions {first}..={lastv}",
                    plan.workload
                )
            });
        }

        // Latency percentiles of this cycle, all client threads together.
        {
            let mut find: Vec<u32> =
                clients.iter().flat_map(|c| c.lat.find_ns.iter().copied()).collect();
            let mut write: Vec<u32> =
                clients.iter().flat_map(|c| c.lat.write_ns.iter().copied()).collect();
            rec.push("find_p50_ns", percentile(&mut find, 50.0) as f64, find.len() as u64);
            rec.push("find_p99_ns", percentile(&mut find, 99.0) as f64, find.len() as u64);
            rec.push("insert_p50_ns", percentile(&mut write, 50.0) as f64, write.len() as u64);
            rec.push("insert_p99_ns", percentile(&mut write, 99.0) as f64, write.len() as u64);
        }

        // Batched inserts of fresh keys, BATCH_PAIRS per timed call.
        {
            let session = store.session();
            let first = store.latest_version() + 1;
            let (mut sum, mut ns_per_pair) = (0u64, Vec::new());
            for chunk in plan.batch_probe.chunks(BATCH_PAIRS) {
                let t = Instant::now();
                let versions = session.insert_batch(chunk);
                ns_per_pair.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
                sum = versions.iter().fold(sum, |s, &v| s.wrapping_add(v));
            }
            store.wait_writes_complete();
            let n = plan.batch_probe.len() as u64;
            rec.push("insert_batch_pairs_per_s", per_second(&ns_per_pair), n);
            checks.check(sum == version_sum(first, first + n - 1), || {
                format!(
                    "{}: batch was not assigned versions {first}..={}",
                    plan.workload,
                    first + n - 1
                )
            });
        }

        // Close and reopen. The store's DRAM is what `open_file` leaves
        // allocated: nothing on the harness side allocates in between.
        let keys = store.key_count();
        let tag = store.tag();
        let before_close = last.then(|| store.session().extract_snapshot(tag));
        checks.check(keys == model.key_count() && tag == model.latest(), || {
            format!(
                "{}: store holds {keys} keys at version {tag}, the model {} at {}",
                plan.workload,
                model.key_count(),
                model.latest()
            )
        });
        drop(store);
        let heap_before = live_heap_bytes();
        let start = Instant::now();
        let (store, stats) =
            PSkipList::open_file(&path, REBUILD_THREADS).map_err(|e| io_err("reopen pool", e))?;
        rec.push("restart_s", start.elapsed().as_secs_f64(), stats.rebuilt_keys);
        let dram = (live_heap_bytes() - heap_before) as f64;
        rec.push("dram_bytes_per_key", dram / keys as f64, keys);
        checks.check(
            store.key_count() == keys && store.tag() == tag && stats.pruned_entries == 0,
            || {
                format!(
                "{}: reopened with {} keys at version {} ({} pruned), closed with {keys} at {tag}",
                plan.workload,
                store.key_count(),
                store.tag(),
                stats.pruned_entries
            )
            },
        );
        if let Some(before) = before_close {
            let after = store.session().extract_snapshot(tag);
            checks.check(after == before && before == model.snapshot(tag), || {
                format!(
                    "{}: snapshot {tag} differs across the reopen or from the model",
                    plan.workload
                )
            });
        }
        drop(store);
        std::fs::remove_file(&path).map_err(|e| io_err("remove pool", e))?;
    }

    let counts = count_replay(plan, seed, &mut checks)?;
    rec.push("fences_per_write", counts.fences_per_write, counts.writes);
    rec.push("pm_bytes_per_user_byte", counts.pm_bytes_per_user_byte, counts.writes);

    Ok(WorkloadResult {
        workload: plan.workload,
        threads: plan.threads,
        fingerprint: plan.fingerprint(),
        metrics: rec.finish(),
        checks,
    })
}

/// Results checked per kind in the untimed verify pass.
const VERIFY_FINDS: usize = 1 << 16;
const VERIFY_SCANS: usize = 1 << 11;

/// The untimed verify pass: replays a prefix of every read stream on one
/// thread after all writes completed and compares each result with the
/// model.
pub(crate) fn verify_reads(store: &PSkipList, plan: &Plan, model: &Model, checks: &mut Checks) {
    let session = store.session();
    let tag = store.tag();
    for op in plan.reads().take(VERIFY_FINDS) {
        let (key, version) = match *op {
            Op::Find { key, version } => (key, version),
            Op::Latest { key } => (key, tag),
            _ => unreachable!("filtered to reads"),
        };
        let got = session.find(key, version);
        let want = model.find(key, version);
        checks.check(got == want, || {
            format!("{}: find({key}, {version}) = {got:?}, model says {want:?}", plan.workload)
        });
    }
    for &(lo, len) in plan.scans.iter().take(VERIFY_SCANS) {
        let got: Vec<Pair> = store.scan(plan.scan_version, lo).take(len as usize).collect();
        let want = model.scan(plan.scan_version, lo, len as usize);
        checks.check(got == want, || {
            format!(
                "{}: scan({}, {lo}).take({len}) differs from the model",
                plan.workload, plan.scan_version
            )
        });
    }
    for &v in &plan.extract_versions {
        let got = session.extract_snapshot(v);
        checks.check(got == model.snapshot(v), || {
            format!(
                "{}: extract_snapshot({v}) differs from the model ({} pairs)",
                plan.workload,
                got.len()
            )
        });
    }
}

pub struct Counts {
    pub writes: u64,
    pub fences_per_write: f64,
    pub pm_bytes_per_user_byte: f64,
}

/// Replays, one thread, on a crash-simulation pool (which counts fences) the
/// writes that characterise the workload: the first [`REPLAY_WRITES`] writes
/// of `main` on top of the whole preload when `main` writes, else the first
/// [`REPLAY_WRITES`] of the preload. `fences_per_write` is taken over the
/// counted writes, `pm_bytes_per_user_byte` over everything the pool holds.
/// On the way it cuts the power at a seeded fence in the second half of the
/// counted writes, recovers that image and checks that every write
/// acknowledged before the recovered watermark is readable.
pub fn count_replay(plan: &Plan, seed: u64, checks: &mut Checks) -> Result<Counts, String> {
    let (base, mut counted) = plan.characteristic_writes();
    counted.truncate(REPLAY_WRITES);
    let (n_base, n) = (base.len(), counted.len());
    let pool_bytes = (8 << 20) + (n_base + n) * 416;
    let store = PSkipList::create_crash_sim(pool_bytes, CrashOptions::default())
        .map_err(|e| io_err("create crash-sim pool", e))?;
    let fences = || store.pool().fence_count().expect("crash-sim pool counts fences");
    let session = store.session();
    let mut tally = Tally::default();
    for op in &base {
        exec(&store, &session, op, &mut tally);
    }
    let fences_at_start = fences();
    for op in &counted[..n / 2] {
        exec(&store, &session, op, &mut tally);
    }
    // Every write so far has returned: it is acknowledged, and must survive.
    let acknowledged = (n_base + n / 2) as u64;
    let half_fences = fences() - fences_at_start;
    let mut rng = Mt19937_64::new(derive_seed(seed, 4));
    let crash_at = fences() + 1 + rng.next_below((half_fences / 4).max(1));
    store.pool().capture_at_fence(crash_at);
    for op in &counted[n / 2..] {
        exec(&store, &session, op, &mut tally);
    }
    store.wait_writes_complete();
    let total_fences = fences() - fences_at_start;
    let heap_used = store.pool().alloc_stats().heap_used;
    let all = (n_base + n) as u64;

    let image = store.pool().captured_image();
    checks.check(image.is_some(), || {
        format!("{}: the crash fence {crash_at} was never reached", plan.workload)
    });
    if let Some(image) = image {
        let (recovered, stats) = PSkipList::open_image(&image, REBUILD_THREADS)
            .map_err(|e| io_err("recover crash image", e))?;
        let watermark = stats.watermark;
        checks.check(watermark >= acknowledged && watermark <= all, || {
            format!(
                "{}: recovered watermark {watermark}, but {acknowledged} of {all} writes were acknowledged",
                plan.workload
            )
        });
        let model = Model::of_writes(base.iter().chain(&counted));
        let rs = recovered.session();
        for op in base.iter().chain(&counted).take(watermark.min(all) as usize) {
            let (Op::Put { key, .. } | Op::Remove { key }) = *op else {
                unreachable!("filtered to writes")
            };
            let got = rs.find(key, watermark);
            let want = model.find(key, watermark);
            checks.check(got == want, || {
                format!(
                    "{}: after the crash find({key}, {watermark}) = {got:?}, model says {want:?}",
                    plan.workload
                )
            });
        }
    }
    Ok(Counts {
        writes: n as u64,
        fences_per_write: total_fences as f64 / n as f64,
        pm_bytes_per_user_byte: heap_used as f64 / (16.0 * all as f64),
    })
}
