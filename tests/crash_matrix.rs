//! Crash-recovery matrix: power-fail at *every* fence boundary.
//!
//! The crash sweep (`crash_sweep.rs`) images the store every few operations;
//! this suite is exhaustive at the persistence-primitive level instead. It
//! runs a deterministic workload once to learn its fence schedule, then
//! replays it once per fence index with the crash simulator armed to capture
//! the media image *at* that exact ordering point. Every captured image must
//! recover to a legal prefix of the workload: the watermark stops at some
//! fully published version, snapshots below it match the reference model,
//! watermarks are monotone across consecutive boundaries, and any durable
//! tag label resolves to the version it named.
//!
//! No image is damaged, so each opens with an empty quarantine report. Each
//! swept image is recovered on a crash-simulation pool, which counts
//! the fences recovery issues: one per chain `repair` (keys, tags), then at
//! most two per pruned history (DESIGN.md §13.3). Neither the workload nor
//! any recovery may return with a line it wrote still unflushed.
//!
//! Two workloads are swept, each with its fence count pinned below:
//!
//! * the original scripted insert / remove / `insert_batch` / tag mix, and
//! * a YCSB-A analogue from the scenario generator (`mvkv-workload::mix`):
//!   zipfian updates interleaved with reads and periodic labeled tags, so
//!   the sweep also covers the update-of-existing-history publish path under
//!   read traffic.

mod common;

use common::apply_script;
use mvkv::core::api::LabeledTags;
use mvkv::core::{PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;
use mvkv::workload::{MixConfig, MixKind, MixOp, Model};

const POOL: usize = 4 << 20;

/// What a workload's sweep is pinned to: the fence boundaries the workload
/// crosses, and the fences recovery spends over all of their images.
struct Pin {
    boundaries: u64,
    recovery_fences: u64,
}

/// The scripted workload's pin; DESIGN.md §13.3 argues every fence it
/// crosses, and `tests/cost_ledger.rs` prices them per operation.
const SCRIPTED: Pin = Pin { boundaries: 56, recovery_fences: 275 };

/// The mixed workload's pin.
const MIXED: Pin = Pin { boundaries: 43, recovery_fences: 123 };

/// Fences every recovery issues: one `KeyChain::repair` per chain.
const REPAIR_FENCES: u64 = 2;

/// Fences a pruned history costs recovery at most: clearing its orphaned
/// stamps, then rewriting its counters. Each pruned history of these
/// sweeps pays one, the counters'.
const PRUNE_FENCES: u64 = 2;

/// Deterministic fence budget with no random evictions: every run produces
/// the identical fence schedule, so boundary `i` lands at the same point of
/// the workload in every replay.
fn crash_opts() -> CrashOptions {
    CrashOptions { eviction_rate: 0.0, seed: 0xC4A5 }
}

/// The scripted workload: single inserts, a removal wave, two labeled tags
/// and an `insert_batch` (the coalesced-fence path). Returns the model, with
/// the labels and the version each one named.
fn run_workload(store: &PSkipList) -> Model {
    let mut model = Model::new();
    let inserts = |keys: std::ops::Range<u64>, value: fn(u64) -> u64| -> Vec<MixOp> {
        keys.map(|key| MixOp::Insert { key, value: value(key) }).collect()
    };
    apply_script(store, &mut model, &inserts(0..24, |k| k * 5 + 1));
    assert_eq!(store.tag_labeled(7), model.tag(7));

    let removes: Vec<MixOp> = (0..24u64).step_by(4).map(|key| MixOp::Remove { key }).collect();
    apply_script(store, &mut model, &removes);

    let pairs: Vec<(u64, u64)> = (100..148u64).map(|k| (k, k * 3)).collect();
    store.session().insert_batch(&pairs);
    for &(k, v) in &pairs {
        model.insert(k, v);
    }
    assert_eq!(store.tag_labeled(8), model.tag(8));

    apply_script(store, &mut model, &inserts(24..40, |k| k));
    model
}

/// The mixed workload: a pinned YCSB-A analogue stream from the scenario
/// generator — zipfian updates over a small preloaded keyspace, interleaved
/// reads (no fences, but they order against the watermark) and a labeled tag
/// every 16 ops. The plan is a pure function of its config, so every replay
/// issues the identical op sequence.
fn run_mixed_workload(store: &PSkipList) -> Model {
    let plan =
        MixConfig { kind: MixKind::YcsbA, ops: 48, keyspace: 12, theta: 0.99, seed: 0xA11CE }
            .generate();
    let mut model = Model::new();
    let load: Vec<MixOp> =
        plan.load.iter().map(|&(key, value)| MixOp::Insert { key, value }).collect();
    apply_script(store, &mut model, &load);
    // Reads cross no fences; they run so the swept schedule is the real
    // mixed stream, not a write-only reduction of it.
    for (i, ops) in plan.ops_for_thread(0, 1).chunks_exact(16).enumerate() {
        apply_script(store, &mut model, ops);
        let label = 1015 + 16 * i as u64;
        assert_eq!(store.tag_labeled(label), model.tag(label));
    }
    model
}

/// Sweeps every fence boundary of `run`, asserting each captured image
/// recovers to a legal prefix within the fences recovery may spend, and
/// that the sweep costs what `pin` says.
fn sweep_every_boundary(name: &str, pin: Pin, run: impl Fn(&PSkipList) -> Model) {
    // Pass 1: learn the fence schedule.
    let probe = PSkipList::create_crash_sim(POOL, crash_opts()).unwrap();
    let fences_at_start = probe.pool().fence_count().unwrap();
    let model = run(&probe);
    let unflushed = probe.pool().unflushed_lines().unwrap();
    assert_eq!(unflushed, [], "the {name} workload left lines unflushed");
    let total_fences = probe.pool().fence_count().unwrap();
    let boundaries = total_fences - fences_at_start;
    assert_eq!(
        boundaries, pin.boundaries,
        "the {name} workload's fence count moved: re-argue DESIGN.md §13.3, then re-pin it \
         here and the rows that moved in tests/cost_ledger.rs"
    );
    eprintln!("crash matrix [{name}]: sweeping {boundaries} fence boundaries");
    let mut recovery_fences = 0;

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
        // A power cut is not damage: a torn append reads as one.
        assert!(stats.quarantine.is_empty(), "boundary {i}: {:?}", stats.quarantine);
        let unflushed = recovered.pool().unflushed_lines().unwrap();
        assert_eq!(unflushed, [], "boundary {i}: recovery left lines unflushed");
        let fences = recovered.pool().fence_count().unwrap();
        let pruned = stats.pruned_histories;
        assert!(
            (REPAIR_FENCES..=REPAIR_FENCES + PRUNE_FENCES * pruned).contains(&fences),
            "boundary {i}: recovery fenced {fences} times for {pruned} pruned histories"
        );
        recovery_fences += fences;
        let w = stats.watermark;
        assert!(
            w <= model.version(),
            "boundary {i}: watermark {w} beyond the workload's {}",
            model.version()
        );
        assert!(
            w >= last_watermark,
            "boundary {i}: watermark went backwards ({last_watermark} -> {w})"
        );
        last_watermark = w;

        // The recovered store is exactly the model's prefix ..=w.
        let session = recovered.session();
        for v in [w / 2, w] {
            assert_eq!(
                session.extract_snapshot(v),
                model.snapshot(v),
                "boundary {i}: snapshot at version {v} of watermark {w}"
            );
        }

        // A durable label names the version it tagged, and everything up to
        // that version was published before the tag — so w covers it.
        for (&label, &version) in model.labels() {
            if let Some(resolved) = recovered.resolve_label(label) {
                assert_eq!(resolved, version, "boundary {i}: label {label}");
                assert!(w >= version, "boundary {i}: label {label} outlived its data");
            }
        }

        // And the recovered store accepts new writes at the right version.
        assert_eq!(session.insert(999_999, 1), w + 1, "boundary {i}: post-recovery insert");
    }

    assert_eq!(
        recovery_fences, pin.recovery_fences,
        "recovering the {name} workload's images fenced a different number of times"
    );

    // The final boundary is the last operation's publish *fence*; its
    // publish store lands after that fence, so the image taken there may
    // legally exclude exactly the final version — but nothing more.
    assert!(
        last_watermark >= model.version() - 1,
        "last boundary lost more than the in-flight op: {last_watermark} vs {}",
        model.version()
    );
}

#[test]
fn every_fence_boundary_recovers_to_a_legal_prefix() {
    sweep_every_boundary("scripted", SCRIPTED, run_workload);
}

#[test]
fn every_fence_boundary_of_the_mixed_workload_recovers() {
    sweep_every_boundary("mixed", MIXED, run_mixed_workload);
}
