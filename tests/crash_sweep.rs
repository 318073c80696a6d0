//! Crash-point sweep: take a power-failure image after every few
//! operations of a scripted workload and verify that each image recovers
//! to exactly the reference model's prefix, with nothing quarantined — the
//! strongest end-to-end statement of the store's crash consistency.

mod common;

use common::{apply_script, random_script};
use mvkv::core::{PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;
use mvkv::workload::{MixOp, Model};

fn run_sweep(crash: CrashOptions, ops: usize, every: usize, seed: u64) {
    let script = random_script(ops, 40, seed);
    let store = PSkipList::create_crash_sim(64 << 20, crash).unwrap();
    let mut model = Model::new();
    let mut images: Vec<(u64, Vec<u8>)> = Vec::new();
    for chunk in script.chunks_exact(every) {
        apply_script(&store, &mut model, chunk);
        images.push((model.version(), store.crash_image().unwrap()));
    }

    for (expected_watermark, image) in images {
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert!(stats.quarantine.is_empty(), "seed {seed}: {:?}", stats.quarantine);
        assert_eq!(
            stats.watermark, expected_watermark,
            "seed {seed}: watermark after crash at op {expected_watermark}"
        );
        let rs = recovered.session();
        // The recovered store must match the model at every probe version
        // up to the crash point.
        for probe in [1, expected_watermark / 2, expected_watermark] {
            assert_eq!(
                rs.extract_snapshot(probe),
                model.snapshot(probe),
                "seed {seed}: snapshot {probe} after crash at {expected_watermark}"
            );
        }
        // And it must accept new writes immediately.
        let v = rs.insert(999_999, 1);
        assert_eq!(v, expected_watermark + 1);
    }
}

#[test]
fn sweep_without_evictions() {
    run_sweep(CrashOptions::default(), 300, 25, 0x51);
}

#[test]
fn sweep_with_aggressive_evictions() {
    // Random cache-line evictions persist *extra* data; recovery must not
    // be confused by it.
    run_sweep(CrashOptions { eviction_rate: 0.8, seed: 0xE1 }, 300, 25, 0x52);
}

#[test]
fn images_taken_mid_insert_batch_exclude_the_torn_suffix() {
    // `insert_batch` prepares every entry before the single publish fence,
    // so a crash inside a batch leaves prepared-but-unpublished slots on
    // media. Recovery must stop the watermark at the published prefix and
    // prune everything after it — the batch is visible only as a prefix.
    let store = PSkipList::create_crash_sim(16 << 20, CrashOptions::default()).unwrap();
    let mut model = Model::new();
    let load: Vec<MixOp> = (1..=50u64).map(|key| MixOp::Insert { key, value: key * 10 }).collect();
    apply_script(&store, &mut model, &load);
    let base = store.tag();

    // The batch runs on another thread while crash images are captured, so
    // each image lands at an arbitrary point inside the batch.
    let pairs: Vec<(u64, u64)> = (1..=2000u64).map(|i| (i % 100 + 1, i)).collect();
    let images: Vec<Vec<u8>> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            store.session().insert_batch(&pairs);
        });
        let mut images = vec![store.crash_image().unwrap()];
        while !writer.is_finished() && images.len() < 6 {
            images.push(store.crash_image().unwrap());
        }
        writer.join().unwrap();
        images
    });
    for &(k, v) in &pairs {
        model.insert(k, v);
    }

    for image in images {
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert!(stats.quarantine.is_empty(), "{:?}", stats.quarantine);
        assert!(
            stats.watermark >= base && stats.watermark <= base + pairs.len() as u64,
            "watermark {} outside [{base}, {}]",
            stats.watermark,
            base + pairs.len() as u64
        );
        // Versions are handed out in batch order by the single writer, so
        // the model at the watermark is the base state plus the first
        // (watermark - base) pairs of the batch, later pairs winning.
        let rs = recovered.session();
        assert_eq!(
            rs.extract_snapshot(stats.watermark),
            model.snapshot(stats.watermark),
            "snapshot at watermark {} must be the published batch prefix",
            stats.watermark
        );
        // The torn suffix is pruned: new writes resume right after the
        // watermark instead of colliding with half-written slots.
        assert_eq!(rs.insert(999_999, 7), stats.watermark + 1);
    }
}

#[test]
fn mid_operation_images_recover_to_a_consistent_prefix() {
    // Images taken *without* waiting for writes to complete: the exact
    // watermark depends on what had persisted, but whatever it is, the
    // recovered store must be a consistent model prefix.
    let script = random_script(400, 30, 0x54);
    let store = PSkipList::create_crash_sim(64 << 20, CrashOptions::default()).unwrap();
    let session = store.session();
    let mut model = Model::new();
    let mut images = Vec::new();
    for (i, op) in script.iter().enumerate() {
        assert_eq!(common::run(&store, &session, op), model.apply(op));
        if i % 37 == 0 {
            images.push(store.crash_image().unwrap());
        }
    }
    for image in images {
        let (recovered, stats) = PSkipList::open_image(&image, 1).unwrap();
        assert!(stats.quarantine.is_empty(), "{:?}", stats.quarantine);
        // Sequential driver: every completed op is durable before the next
        // starts, so the watermark equals some op-count prefix.
        let rs = recovered.session();
        for probe in [stats.watermark / 2, stats.watermark] {
            assert_eq!(rs.extract_snapshot(probe), model.snapshot(probe));
        }
    }
}
