//! Crash-point sweep: take a power-failure image after every few
//! operations of a scripted workload and verify that each image recovers
//! to exactly the oracle's prefix — the strongest end-to-end statement of
//! the store's crash consistency.

mod common;

use common::{random_script, Oracle, Op};
use mvkv::core::{PSkipList, StoreOptions, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;

fn run_sweep(crash: CrashOptions, options: StoreOptions, ops: usize, every: usize, seed: u64) {
    let script = random_script(ops, 40, seed);
    let pool = mvkv::pmem::PmemPool::create_crash_sim(64 << 20, crash).unwrap();
    let store = PSkipList::create(pool, options).unwrap();
    let session = store.session();
    let mut oracle = Oracle::new();
    let mut images: Vec<(u64, Vec<u8>)> = Vec::new();

    for (i, &op) in script.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                session.insert(k, v);
                oracle.insert(k, v);
            }
            Op::Remove(k) => {
                session.remove(k);
                oracle.remove(k);
            }
        }
        if (i + 1) % every == 0 {
            store.wait_writes_complete();
            images.push((oracle.version(), store.crash_image().unwrap()));
        }
    }

    for (expected_watermark, image) in images {
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert_eq!(
            stats.watermark, expected_watermark,
            "seed {seed}: watermark after crash at op {expected_watermark}"
        );
        let rs = recovered.session();
        // The recovered store must match the oracle at every probe version
        // up to the crash point.
        for probe in [1, expected_watermark / 2, expected_watermark] {
            assert_eq!(
                rs.extract_snapshot(probe),
                oracle.snapshot(probe),
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
    run_sweep(CrashOptions::default(), StoreOptions::default(), 300, 25, 0x51);
}

#[test]
fn sweep_with_aggressive_evictions() {
    // Random cache-line evictions persist *extra* data; recovery must not
    // be confused by it.
    run_sweep(
        CrashOptions { eviction_rate: 0.8, seed: 0xE1 },
        StoreOptions::default(),
        300,
        25,
        0x52,
    );
}

#[test]
fn sweep_with_changelog_enabled() {
    run_sweep(
        CrashOptions::default(),
        StoreOptions { changelog: true, ..Default::default() },
        300,
        25,
        0x53,
    );
}

#[test]
fn images_taken_mid_insert_batch_exclude_the_torn_suffix() {
    // `insert_batch` prepares every entry before the single publish fence,
    // so a crash inside a batch leaves prepared-but-unpublished slots on
    // media. Recovery must stop the watermark at the published prefix and
    // prune everything after it — the batch is visible only as a prefix.
    let store = PSkipList::create_crash_sim(16 << 20, CrashOptions::default()).unwrap();
    let session = store.session();
    for k in 1..=50u64 {
        session.insert(k, k * 10);
    }
    store.wait_writes_complete();
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

    for image in images {
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert!(
            stats.watermark >= base && stats.watermark <= base + pairs.len() as u64,
            "watermark {} outside [{base}, {}]",
            stats.watermark,
            base + pairs.len() as u64
        );
        // Versions are handed out in batch order by the single writer, so
        // the oracle at the watermark is the base state plus the first
        // (watermark - base) pairs of the batch, later pairs winning.
        let mut expect: std::collections::BTreeMap<u64, u64> =
            (1..=50u64).map(|k| (k, k * 10)).collect();
        for &(k, v) in &pairs[..(stats.watermark - base) as usize] {
            expect.insert(k, v);
        }
        let rs = recovered.session();
        assert_eq!(
            rs.extract_snapshot(stats.watermark),
            expect.into_iter().collect::<Vec<_>>(),
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
    // recovered store must be a consistent oracle prefix.
    let script = random_script(400, 30, 0x54);
    let store = PSkipList::create_volatile(64 << 20).unwrap(); // driver store
    let crash_store =
        PSkipList::create_crash_sim(64 << 20, CrashOptions::default()).unwrap();
    let _ = store;
    let session = crash_store.session();
    let mut oracle = Oracle::new();
    let mut images = Vec::new();
    for (i, &op) in script.iter().enumerate() {
        match op {
            Op::Insert(k, v) => {
                session.insert(k, v);
                oracle.insert(k, v);
            }
            Op::Remove(k) => {
                session.remove(k);
                oracle.remove(k);
            }
        }
        if i % 37 == 0 {
            images.push(crash_store.crash_image().unwrap());
        }
    }
    for image in images {
        let (recovered, stats) = PSkipList::open_image(&image, 1).unwrap();
        // Sequential driver: every completed op is durable before the next
        // starts, so the watermark equals some op-count prefix.
        let rs = recovered.session();
        for probe in [stats.watermark / 2, stats.watermark] {
            assert_eq!(rs.extract_snapshot(probe), oracle.snapshot(probe));
        }
    }
}
