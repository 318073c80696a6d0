//! Model-based tests for the lazy snapshot range-scan iterator
//! (`Engine::scan` / `scan_range`, `crates/core/src/scan.rs`), run over both
//! word-keyed instantiations of the store engine: `PSkipList` and `ESkipList`.
//!
//! The model is the brute-force truth: one `BTreeMap` per version, built by
//! replaying the script. Every store scan — at *every* version, over
//! windows chosen to straddle removed keys, key gaps and the extremes — must
//! equal the model's ordered range. Label-resolved snapshots go through
//! `LabeledTags::resolve_label` and must land on the exact version the tag
//! named. The scan is also held equal to `extract_range` — of the word
//! stores and of a `VersionedMap<String, _>` replaying the same script —
//! which ties every entry point of the one snapshot walk to the model.

mod common;

use common::Oracle;
use mvkv::core::api::LabeledTags;
use mvkv::core::{ESkipList, Engine, Home, PSkipList, StoreSession, VersionedMap, VersionedStore};
use mvkv::workload::Mt19937_64;
use std::collections::{BTreeMap, BTreeSet};

/// One model per version: `models[v]` is the live map of snapshot `v`
/// (index 0 = the empty store).
type Models = Vec<BTreeMap<u64, u64>>;

/// Replays a deterministic mixed script and records the model after every
/// version. Also returns the labeled tags taken along the way as
/// `(label, version)` pairs.
fn build<H>(store: Engine<u64, H>) -> (Engine<u64, H>, Models, Vec<(u64, u64)>)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let session = store.session();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut models = vec![model.clone()];
    let mut labels = Vec::new();
    let mut rng = Mt19937_64::new(0x5CA9);

    // Keys on a stride so window bounds can fall *between* keys.
    let keys: Vec<u64> = (0..60u64).map(|k| 10 + k * 7).collect();

    let mutate = |session: &&Engine<u64, H>,
                      model: &mut BTreeMap<u64, u64>,
                      models: &mut Vec<BTreeMap<u64, u64>>,
                      key: u64,
                      val: Option<u64>| {
        match val {
            Some(v) => {
                session.insert(key, v);
                model.insert(key, v);
            }
            None => {
                session.remove(key);
                model.remove(&key);
            }
        }
        models.push(model.clone());
    };

    // Wave 1: insert everything.
    for &k in &keys {
        mutate(&session, &mut model, &mut models, k, Some(k * 3 + 1));
    }
    store.wait_writes_complete();
    labels.push((100, store.tag_labeled(100)));

    // Wave 2: remove every third key (scans must skip the tombstones).
    for &k in keys.iter().step_by(3) {
        mutate(&session, &mut model, &mut models, k, None);
    }
    store.wait_writes_complete();
    labels.push((101, store.tag_labeled(101)));

    // Wave 3: shuffled updates + re-inserts of some removed keys.
    let mut shuffled = keys.clone();
    rng.shuffle(&mut shuffled);
    for &k in shuffled.iter().take(30) {
        let v = rng.next_below(1 << 40);
        mutate(&session, &mut model, &mut models, k, Some(v));
    }
    store.wait_writes_complete();
    labels.push((102, store.tag_labeled(102)));

    // Wave 4: remove a contiguous run in the middle, so wide windows
    // straddle a whole removed region.
    for &k in &keys[20..30] {
        mutate(&session, &mut model, &mut models, k, None);
    }
    store.wait_writes_complete();
    labels.push((103, store.tag_labeled(103)));

    (store, models, labels)
}

/// Runs a check that is generic over the home on both instantiations.
macro_rules! on_both_stores {
    ($check:ident) => {{
        $check(PSkipList::create_volatile(32 << 20).unwrap());
        $check(ESkipList::new());
    }};
}

fn model_range(model: &BTreeMap<u64, u64>, lo: u64, hi: Option<u64>) -> Vec<(u64, u64)> {
    match hi {
        Some(hi) => model.range(lo..hi).map(|(&k, &v)| (k, v)).collect(),
        None => model.range(lo..).map(|(&k, &v)| (k, v)).collect(),
    }
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
    let (store, models, _) = build(fresh);
    let max = models.len() as u64 - 1;
    assert_eq!(store.tag(), max, "watermark covers the whole script");

    // Window bounds: extremes, exact keys, removed keys, mid-gap values.
    let windows: &[(u64, Option<u64>)] = &[
        (0, None),
        (0, Some(u64::MAX)),
        (10, Some(10)),         // empty window
        (0, Some(10)),          // everything below the first key
        (10, Some(11)),         // exactly the first key
        (80, Some(200)),        // straddles keys and gaps
        (31, Some(32)),         // key 31 is removed in wave 2 (10 + 3*7)
        (150, Some(220)),       // covers the wave-4 removed run
        (13, Some(400)),        // lo mid-gap
        (500, None),            // tail
    ];

    for (v, model) in models.iter().enumerate() {
        let v = v as u64;
        for &(lo, hi) in windows {
            let got: Vec<_> = match hi {
                Some(hi) => store.scan_range(v, lo, hi).collect(),
                None => store.scan(v, lo).collect(),
            };
            assert_eq!(got, model_range(model, lo, hi), "version {v} window {lo}..{hi:?}");
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
    let (store, models, _) = build(fresh);
    let session = store.session();
    let max = models.len() as u64 - 1;

    // The same script in a string-keyed map: read back from the store's own
    // histories, keys zero-padded so that string order is numeric order.
    let name = |key: u64| format!("{key:020}");
    let keys = models.iter().flat_map(|m| m.keys().copied()).collect::<BTreeSet<u64>>();
    let mut script: Vec<_> = keys
        .into_iter()
        .flat_map(|k| session.extract_history(k).into_iter().map(move |r| (r.version, k, r.value)))
        .collect();
    script.sort_unstable();
    let map: VersionedMap<String, u64> = VersionedMap::new();
    for &(version, key, value) in &script {
        let got = match value {
            Some(value) => map.insert(name(key), value),
            None => map.remove(name(key)),
        };
        assert_eq!(got, version, "the replay issues the script's versions");
    }
    let words = |pairs: Vec<(&String, &u64)>| -> Vec<(u64, u64)> {
        pairs.into_iter().map(|(k, &v)| (k.parse().unwrap(), v)).collect()
    };

    for v in 0..=max {
        let scanned: Vec<_> = store.scan(v, 0).collect();
        assert_eq!(scanned, session.extract_snapshot(v), "full scan vs snapshot at {v}");
        assert_eq!(scanned, words(map.extract_snapshot(v)), "full scan vs string map at {v}");
        let windowed: Vec<_> = store.scan_range(v, 50, 300).collect();
        assert_eq!(windowed, session.extract_range(v, 50, 300), "window vs extract_range at {v}");
        let in_map = map.extract_range(v, &name(50), &name(300));
        assert_eq!(windowed, words(in_map), "window vs string map at {v}");
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
    let (store, models, labels) = build(fresh);
    assert_eq!(labels.len(), 4);
    for &(label, version) in &labels {
        let resolved = store.resolve_label(label).expect("label durable");
        assert_eq!(resolved, version, "label {label} names its version");
        let got: Vec<_> = store.scan(resolved, 0).collect();
        assert_eq!(
            got,
            model_range(&models[resolved as usize], 0, None),
            "label {label} scans to the tagged state"
        );
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
    let (store, models, _) = build(fresh);
    let max = models.len() as u64 - 1;
    let beyond: Vec<_> = store.scan(max + 1000, 0).collect();
    assert_eq!(beyond, model_range(models.last().unwrap(), 0, None));
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
    let (store, models, _) = build(fresh);
    let max = models.len() as u64 - 1;
    let full: Vec<_> = store.scan(max, 0).collect();
    for n in [0, 1, 7, full.len(), full.len() + 10] {
        let taken: Vec<_> = store.scan(max, 0).take(n).collect();
        assert_eq!(taken, full[..n.min(full.len())], "take({n}) is a prefix");
    }
    let mut s = store.scan_range(max, 0, 100);
    while s.next().is_some() {}
    assert!(s.next().is_none(), "fused after exhaustion");
    // The oracle in common/ agrees with the model construction here.
    let mut oracle = Oracle::new();
    oracle.insert(1, 2);
    assert_eq!(oracle.snapshot(1), vec![(1, 2)]);
}
