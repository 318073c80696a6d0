//! Model-based tests for the lazy snapshot range-scan iterator
//! (`Engine::scan` / `scan_range`, `crates/core/src/scan.rs`), run over both
//! word-keyed instantiations of the store engine: `PSkipList` and `ESkipList`.
//!
//! The truth is the reference model (`mvkv::workload::Model`), fed the same
//! script. Every store scan — at *every* version, over windows chosen to
//! straddle removed keys, key gaps and the extremes — must equal the model's
//! ordered range. Label-resolved snapshots go through
//! `LabeledTags::resolve_label` and must land on the exact version the tag
//! named. The scan is also held equal to `extract_snapshot` and
//! `extract_range`, which ties every entry point of the one snapshot walk to
//! the model; the extractions, which resolve histories through a look-ahead
//! ring, are held to the model directly too, on a reopened store as well.

mod common;

use common::{apply_script, on_both_stores};
use mvkv::core::api::LabeledTags;
use mvkv::core::{Engine, Home, PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;
use mvkv::workload::{MixOp, Model, Mt19937_64};

/// Replays a deterministic mixed script in four waves on the store and the
/// model, labeling the end of each wave with a tag (labels 100–103).
fn build<H>(store: Engine<u64, H>) -> (Engine<u64, H>, Model)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let mut model = Model::new();
    let mut rng = Mt19937_64::new(0x5CA9);

    // Keys on a stride so window bounds can fall *between* keys.
    let keys: Vec<u64> = (0..60u64).map(|k| 10 + k * 7).collect();
    let insert = |key, value| MixOp::Insert { key, value };
    let remove = |&key: &u64| MixOp::Remove { key };
    // Wave 1: insert everything.
    let wave1: Vec<MixOp> = keys.iter().map(|&k| insert(k, k * 3 + 1)).collect();
    // Wave 2: remove every third key (scans must skip the tombstones).
    let wave2: Vec<MixOp> = keys.iter().step_by(3).map(remove).collect();
    // Wave 3: shuffled updates + re-inserts of some removed keys.
    let mut shuffled = keys.clone();
    rng.shuffle(&mut shuffled);
    let wave3: Vec<MixOp> =
        shuffled.iter().take(30).map(|&k| insert(k, rng.next_below(1 << 40))).collect();
    // Wave 4: remove a contiguous run in the middle, so wide windows
    // straddle a whole removed region.
    let wave4: Vec<MixOp> = keys[20..30].iter().map(remove).collect();

    for (label, wave) in (100..).zip([wave1, wave2, wave3, wave4]) {
        apply_script(&store, &mut model, &wave);
        assert_eq!(store.tag_labeled(label), model.tag(label));
    }
    (store, model)
}

#[test]
fn scans_match_the_per_version_model_at_every_version() {
    on_both_stores!(check_scans_match_the_per_version_model_at_every_version);
}

fn check_scans_match_the_per_version_model_at_every_version<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    let max = model.version();
    assert_eq!(store.tag(), max, "watermark covers the whole script");

    // Window bounds: extremes, exact keys, removed keys, mid-gap values.
    let windows: &[(u64, Option<u64>)] = &[
        (0, None),
        (0, Some(u64::MAX)),
        (10, Some(10)),   // empty window
        (0, Some(10)),    // everything below the first key
        (10, Some(11)),   // exactly the first key
        (80, Some(200)),  // straddles keys and gaps
        (31, Some(32)),   // key 31 is removed in wave 2 (10 + 3*7)
        (150, Some(220)), // covers the wave-4 removed run
        (13, Some(400)),  // lo mid-gap
        (500, None),      // tail
    ];

    for v in 0..=max {
        for &(lo, hi) in windows {
            let (got, want): (Vec<_>, _) = match hi {
                Some(hi) => (store.scan_range(v, lo, hi).collect(), model.range(v, lo..hi)),
                None => (store.scan(v, lo).collect(), model.range(v, lo..)),
            };
            assert_eq!(got, want, "version {v} window {lo}..{hi:?}");
        }
    }
}

#[test]
fn scan_agrees_with_extract_range_and_snapshot() {
    on_both_stores!(check_scan_agrees_with_extract_range_and_snapshot);
}

fn check_scan_agrees_with_extract_range_and_snapshot<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    let session = store.session();
    for v in 0..=model.version() {
        let scanned: Vec<_> = store.scan(v, 0).collect();
        assert_eq!(scanned, session.extract_snapshot(v), "full scan vs snapshot at {v}");
        let windowed: Vec<_> = store.scan_range(v, 50, 300).collect();
        assert_eq!(windowed, session.extract_range(v, 50, 300), "window vs extract_range at {v}");
    }
}

#[test]
fn extractions_through_the_look_ahead_ring_match_the_model() {
    on_both_stores!(check_extractions_through_the_look_ahead_ring_match_the_model);
    // A reopened store walks an index that was bulk-built, not inserted.
    let (store, model) =
        build(PSkipList::create_crash_sim(64 << 20, CrashOptions::default()).unwrap());
    let image = store.crash_image().unwrap();
    let (reopened, _) = PSkipList::open_image(&image, 2).unwrap();
    extractions_match(&reopened, &model);
}

fn check_extractions_through_the_look_ahead_ring_match_the_model<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    extractions_match(&store, &model);
}

/// `extract_snapshot` and `extract_range` equal the model at every version
/// — version 0 is below every entry, later ones hold tombstoned keys — over
/// windows of `span` index entries around the ring's depth of 16: shorter,
/// as long, one longer, two rings, and a `hi` that cuts inside the second
/// ring or runs past the last key. Each `hi` lands on a key (excluded) and
/// in the gap before it.
fn extractions_match<S: VersionedStore>(store: &S, model: &Model) {
    let session = store.session();
    for v in 0..=model.version() {
        assert_eq!(session.extract_snapshot(v), model.snapshot(v), "snapshot at {v}");
        for first in [0u64, 3, 17, 40] {
            for span in [1u64, 15, 16, 17, 32, 33, 45, 60] {
                let lo = 10 + 7 * first;
                for hi in [lo + 7 * span, lo + 7 * span - 3] {
                    let (got, want) = (session.extract_range(v, lo, hi), model.range(v, lo..hi));
                    assert_eq!(got, want, "{} at {v}, {lo}..{hi}", store.name());
                }
            }
        }
    }
}

#[test]
fn label_resolved_snapshots_scan_to_their_tagged_state() {
    on_both_stores!(check_label_resolved_snapshots_scan_to_their_tagged_state);
}

fn check_label_resolved_snapshots_scan_to_their_tagged_state<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    assert_eq!(model.labels().len(), 4);
    for (&label, &version) in model.labels() {
        let resolved = store.resolve_label(label).expect("label durable");
        assert_eq!(resolved, version, "label {label} names its version");
        let got: Vec<_> = store.scan(resolved, 0).collect();
        assert_eq!(got, model.snapshot(resolved), "label {label} scans to the tagged state");
    }
}

#[test]
fn scans_beyond_the_watermark_answer_as_of_the_watermark() {
    on_both_stores!(check_scans_beyond_the_watermark_answer_as_of_the_watermark);
}

fn check_scans_beyond_the_watermark_answer_as_of_the_watermark<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    let max = model.version();
    let beyond: Vec<_> = store.scan(max + 1000, 0).collect();
    assert_eq!(beyond, model.snapshot(max));
    let s = store.scan(max + 1000, 0);
    assert_eq!(s.version(), max, "reported version clamps to the watermark");
}

#[test]
fn early_stop_is_a_prefix_and_iterator_fuses() {
    on_both_stores!(check_early_stop_is_a_prefix_and_iterator_fuses);
}

fn check_early_stop_is_a_prefix_and_iterator_fuses<H>(fresh: Engine<u64, H>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let (store, model) = build(fresh);
    let max = model.version();
    let full: Vec<_> = store.scan(max, 0).collect();
    for n in [0, 1, 7, full.len(), full.len() + 10] {
        let taken: Vec<_> = store.scan(max, 0).take(n).collect();
        assert_eq!(taken, full[..n.min(full.len())], "take({n}) is a prefix");
    }
    let mut s = store.scan_range(max, 0, 100);
    while s.next().is_some() {}
    assert!(s.next().is_none(), "fused after exhaustion");
}
