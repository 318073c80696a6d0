//! Crash-recovery matrix: power-fail at *every* fence boundary.
//!
//! The crash sweep (`crash_sweep.rs`) images the store every few operations;
//! this suite is exhaustive at the persistence-primitive level instead. It
//! runs a deterministic workload once to learn its fence schedule, then
//! replays it once per fence index with the crash simulator armed to capture
//! the media image *at* that exact ordering point. Every captured image must
//! recover to a legal prefix of the workload: the watermark stops at some
//! fully published version, snapshots below it match the oracle, watermarks
//! are monotone across consecutive boundaries, and any durable tag label
//! resolves to the version it named.
//!
//! Two workloads are swept, each pinned to its own `workload <id> <n>` line
//! of `crates/xtask/fence_budget.lock`:
//!
//! * the original scripted insert / remove / `insert_batch` / tag mix, and
//! * a YCSB-A analogue from the scenario generator (`mvkv-workload::mix`):
//!   zipfian updates interleaved with reads and periodic labeled tags, so
//!   the sweep also covers the update-of-existing-history publish path under
//!   read traffic.

mod common;

use common::Oracle;
use mvkv::core::api::LabeledTags;
use mvkv::core::{PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;
use mvkv::workload::{MixConfig, MixKind, MixOp};

const POOL: usize = 4 << 20;

/// Deterministic fence budget with no random evictions: every run produces
/// the identical fence schedule, so boundary `i` lands at the same point of
/// the workload in every replay.
fn crash_opts() -> CrashOptions {
    CrashOptions { eviction_rate: 0.0, seed: 0xC4A5 }
}

/// The scripted workload: single inserts, a removal wave, two labeled tags
/// and an `insert_batch` (the coalesced-fence path). Returns the oracle and
/// the labels with the version each one named.
fn run_workload(store: &PSkipList) -> (Oracle, Vec<(u64, u64)>) {
    let session = store.session();
    let mut oracle = Oracle::new();
    let mut labels = Vec::new();

    for k in 0..24u64 {
        session.insert(k, k * 5 + 1);
        oracle.insert(k, k * 5 + 1);
    }
    store.tag_labeled(7);
    labels.push((7, oracle.version()));

    for k in (0..24u64).step_by(4) {
        session.remove(k);
        oracle.remove(k);
    }

    let pairs: Vec<(u64, u64)> = (100..148u64).map(|k| (k, k * 3)).collect();
    session.insert_batch(&pairs);
    for &(k, v) in &pairs {
        oracle.insert(k, v);
    }
    store.tag_labeled(8);
    labels.push((8, oracle.version()));

    for k in 24..40u64 {
        session.insert(k, k);
        oracle.insert(k, k);
    }
    store.wait_writes_complete();
    (oracle, labels)
}

/// The mixed workload: a pinned YCSB-A analogue stream from the scenario
/// generator — zipfian updates over a small preloaded keyspace, interleaved
/// reads (no fences, but they order against the watermark) and a labeled tag
/// every 16 ops. The plan is a pure function of its config, so every replay
/// issues the identical op sequence.
fn run_mixed_workload(store: &PSkipList) -> (Oracle, Vec<(u64, u64)>) {
    let session = store.session();
    let mut oracle = Oracle::new();
    let mut labels = Vec::new();

    let plan = MixConfig {
        kind: MixKind::YcsbA,
        ops: 48,
        keyspace: 12,
        theta: 0.99,
        seed: 0xA11CE,
    }
    .generate();

    for &(k, v) in &plan.load {
        session.insert(k, v);
        oracle.insert(k, v);
    }

    for (i, op) in plan.ops_for_thread(0, 1).into_iter().enumerate() {
        match op {
            MixOp::Update { key, value } | MixOp::Insert { key, value } => {
                session.insert(key, value);
                oracle.insert(key, value);
            }
            MixOp::Read { key } => {
                // Reads cross no fences; executed so the swept schedule is
                // the real mixed stream, not a write-only reduction of it.
                let _ = session.find(key, store.tag());
            }
            other => unreachable!("YCSB-A emits only reads and updates: {other:?}"),
        }
        if (i + 1) % 16 == 0 {
            let label = 1000 + i as u64;
            store.tag_labeled(label);
            labels.push((label, oracle.version()));
        }
    }
    store.wait_writes_complete();
    (oracle, labels)
}

/// Sweeps every fence boundary of `run`, asserting each captured image
/// recovers to a legal prefix. `budget_id` names the workload's pinned
/// fence count in `crates/xtask/fence_budget.lock`.
fn sweep_every_boundary(budget_id: &str, run: impl Fn(&PSkipList) -> (Oracle, Vec<(u64, u64)>)) {
    // Pass 1: learn the fence schedule.
    let probe = PSkipList::create_crash_sim(POOL, crash_opts()).unwrap();
    let fences_at_start = probe.pool().fence_count().unwrap();
    let (oracle, labels) = run(&probe);
    let total_fences = probe.pool().fence_count().unwrap();
    let boundaries = total_fences - fences_at_start;
    // Exact pin against the static fence-budget lock: the MOD fence audit
    // (DESIGN.md §13) removed the per-pair key-chain fence, the
    // history-create fence, and the allocator state-flip fences, taking the
    // original scripted workload from 583 to 251 boundaries; with segment 0
    // in the history block a fresh key adopts no segment, and it is 58 (the
    // mixed workload: 84 to 54). The analyzer's
    // fence-budget pass derives per-entry-point budgets statically; this
    // runtime count is the workload-level cross-check recorded in the same
    // lock file, so a reintroduced (or dropped) fence fails here *and* in
    // `cargo run -p xtask -- analyze`, each message pointing at the other.
    let budgeted = budgeted_workload_fences(budget_id);
    assert_eq!(
        boundaries, budgeted,
        "fence count drifted from crates/xtask/fence_budget.lock ({budget_id} {budgeted}): \
         re-argue DESIGN.md §13 and bless with `cargo run -p xtask -- analyze --bless`"
    );
    eprintln!("crash matrix [{budget_id}]: sweeping {boundaries} fence boundaries");

    // Pass 2: one replay per fence boundary. Arming happens after store
    // creation, so the swept indices start past the format-time fences.
    let mut last_watermark = 0u64;
    for i in fences_at_start + 1..=total_fences {
        let store = PSkipList::create_crash_sim(POOL, crash_opts()).unwrap();
        assert!(store.pool().capture_at_fence(i));
        run(&store);
        let image = store
            .pool()
            .captured_image()
            .unwrap_or_else(|| panic!("boundary {i}: trap never fired"));

        let (recovered, stats) = PSkipList::open_image(&image, 2)
            .unwrap_or_else(|e| panic!("boundary {i}: recovery failed: {e}"));
        let w = stats.watermark;
        assert!(
            w <= oracle.version(),
            "boundary {i}: watermark {w} beyond the workload's {}",
            oracle.version()
        );
        assert!(
            w >= last_watermark,
            "boundary {i}: watermark went backwards ({last_watermark} -> {w})"
        );
        last_watermark = w;

        // The recovered store is exactly the oracle's prefix ..=w.
        let session = recovered.session();
        for v in [w / 2, w] {
            assert_eq!(
                session.extract_snapshot(v),
                oracle.snapshot(v),
                "boundary {i}: snapshot at version {v} of watermark {w}"
            );
        }

        // A durable label names the version it tagged, and everything up to
        // that version was published before the tag — so w covers it.
        for &(label, version) in &labels {
            if let Some(resolved) = recovered.resolve_label(label) {
                assert_eq!(resolved, version, "boundary {i}: label {label}");
                assert!(w >= version, "boundary {i}: label {label} outlived its data");
            }
        }

        // And the recovered store accepts new writes at the right version.
        assert_eq!(session.insert(999_999, 1), w + 1, "boundary {i}: post-recovery insert");
    }

    // The final boundary is the last operation's publish *fence*; its
    // publish store lands after that fence, so the image taken there may
    // legally exclude exactly the final version — but nothing more.
    assert!(
        last_watermark >= oracle.version() - 1,
        "last boundary lost more than the in-flight op: {last_watermark} vs {}",
        oracle.version()
    );
}

#[test]
fn every_fence_boundary_recovers_to_a_legal_prefix() {
    sweep_every_boundary("crash_matrix_fences", run_workload);
}

#[test]
fn every_fence_boundary_of_the_mixed_workload_recovers() {
    sweep_every_boundary("crash_matrix_mixed_fences", run_mixed_workload);
}

/// The `workload <id> <n>` line of the committed fence lock.
fn budgeted_workload_fences(id: &str) -> u64 {
    let lock = include_str!("../crates/xtask/fence_budget.lock");
    let prefix = format!("workload {id} ");
    lock.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("fence_budget.lock has a `workload {id}` line"))
}
