//! Restart and crash-recovery integration tests spanning pmem, vhistory,
//! keychain and core.

mod common;

use common::{apply_script, random_script, Oracle, Op};
use mvkv::core::{DbStore, PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::CrashOptions;

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mvkv-persist-{}-{}", std::process::id(), name))
}

#[test]
fn pskiplist_full_state_round_trips_through_file() {
    let path = temp("roundtrip.pool");
    let script = random_script(2000, 300, 0x11);
    let mut oracle = Oracle::new();
    {
        let store = PSkipList::create_file(&path, 64 << 20).unwrap();
        apply_script(&store, &mut oracle, &script);
    }
    for threads in [1usize, 3, 8] {
        let (store, stats) = PSkipList::open_file(&path, threads).unwrap();
        assert_eq!(stats.watermark, oracle.version());
        assert_eq!(stats.pruned_entries, 0);
        let probes: Vec<u64> = vec![1, oracle.version() / 2, oracle.version()];
        common::assert_agrees(
            &store,
            &oracle,
            &(0..300).collect::<Vec<u64>>(),
            &probes,
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn pskiplist_repeated_open_write_cycles() {
    let path = temp("cycles.pool");
    let mut oracle = Oracle::new();
    {
        let store = PSkipList::create_file(&path, 64 << 20).unwrap();
        apply_script(&store, &mut oracle, &random_script(300, 50, 1));
    }
    for round in 2..=4u64 {
        let (store, stats) = PSkipList::open_file(&path, 2).unwrap();
        assert_eq!(stats.watermark, oracle.version(), "round {round}");
        apply_script(&store, &mut oracle, &random_script(300, 50, round));
    }
    let (store, _) = PSkipList::open_file(&path, 4).unwrap();
    common::assert_agrees(
        &store,
        &oracle,
        &(0..50).collect::<Vec<u64>>(),
        &[1, oracle.version() / 2, oracle.version()],
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_image_exposes_exactly_the_watermark_prefix() {
    let store = PSkipList::create_crash_sim(64 << 20, CrashOptions::default()).unwrap();
    let mut oracle = Oracle::new();
    apply_script(&store, &mut oracle, &random_script(1000, 100, 0xC4));
    let image = store.crash_image().unwrap();

    let (recovered, stats) = PSkipList::open_image(&image, 4).unwrap();
    assert_eq!(stats.watermark, oracle.version(), "all ops completed pre-crash");
    common::assert_agrees(
        &recovered,
        &oracle,
        &(0..100).collect::<Vec<u64>>(),
        &[oracle.version() / 2, oracle.version()],
    );
}

#[test]
fn crash_with_random_evictions_still_recovers_consistently() {
    // Cache-eviction simulation persists *extra* lines at random; recovery
    // must stay correct regardless (PM may persist more, never less).
    for seed in [1u64, 2, 3] {
        let store = PSkipList::create_crash_sim(
            64 << 20,
            CrashOptions { eviction_rate: 0.5, seed },
        )
        .unwrap();
        let mut oracle = Oracle::new();
        apply_script(&store, &mut oracle, &random_script(500, 60, seed));
        let image = store.crash_image().unwrap();
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        assert_eq!(stats.watermark, oracle.version(), "seed {seed}");
        let session = recovered.session();
        for k in 0..60u64 {
            assert_eq!(
                session.find(k, oracle.version()),
                oracle.find(k, oracle.version()),
                "seed {seed} key {k}"
            );
        }
    }
}

#[test]
fn torn_final_op_is_pruned_and_store_reusable() {
    let store = PSkipList::create_crash_sim(64 << 20, CrashOptions::default()).unwrap();
    let mut oracle = Oracle::new();
    apply_script(&store, &mut oracle, &[Op::Insert(1, 10), Op::Insert(2, 20)]);
    // The crash happens before the next op's done stamp persists: emulate
    // by snapshotting the image now and treating a later op as torn.
    let image = store.crash_image().unwrap();
    store.session().insert(3, 30); // never reaches the image

    let (recovered, stats) = PSkipList::open_image(&image, 1).unwrap();
    assert_eq!(stats.watermark, 2);
    let s = recovered.session();
    assert_eq!(s.find(3, u64::MAX), None);
    // Version numbering resumes without gaps.
    assert_eq!(s.insert(3, 31), 3);
    assert_eq!(s.find(3, 3), Some(31));
}

#[test]
fn dbreg_round_trips_and_checkpoints() {
    let path = temp("dbreg.db");
    let script = random_script(1000, 100, 0xDB);
    let mut oracle = Oracle::new();
    {
        let store = DbStore::reg(&path).unwrap();
        apply_script(&store, &mut oracle, &script);
    }
    {
        let store = DbStore::reopen(&path).unwrap();
        assert_eq!(store.tag(), oracle.version());
        common::assert_agrees(
            &store,
            &oracle,
            &(0..100).collect::<Vec<u64>>(),
            &[1, oracle.version() / 2, oracle.version()],
        );
        // Write more after the reopen, reopen again.
        apply_script(&store, &mut oracle, &random_script(200, 100, 0xDC));
    }
    {
        let store = DbStore::reopen(&path).unwrap();
        assert_eq!(store.tag(), oracle.version());
    }
    let _ = std::fs::remove_file(&path);
    let mut wal = path.into_os_string();
    wal.push(".wal");
    let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
}

#[test]
fn file_backed_audit_classification_survives_crash_and_remap() {
    use mvkv::pmem::{recovery, PmemPool};
    let path = temp("audit-crash.pool");
    {
        let pool = PmemPool::create_file(&path, 4 << 20).unwrap();
        let keep = pool.alloc(64).unwrap();
        let gone = pool.alloc(64).unwrap();
        pool.dealloc(gone);
        // Simulated crash mid-allocation: run header written, occupancy
        // word torn.
        let torn = pool.alloc(256).unwrap();
        pool.write_u64(pool.state_word(torn), 0xBAD_C0DE);
        pool.persist(pool.state_word(torn), 8);
        pool.write_u64(keep, 42);
        pool.persist(keep, 8);
        pool.set_root(keep);
        pool.sync_all();
    }
    // Audit runs against a fresh mmap of the file, not the writer's memory.
    let pool = PmemPool::open_file(&path).unwrap();
    let audit = recovery::audit(&pool);
    assert_eq!(audit.indeterminate_blocks, 1, "torn block classified after re-mmap");
    assert_eq!(audit.allocated_blocks, 1);
    // Each size class seen so far (64 B and 256 B) was refilled once with a
    // run of REFILL_BATCH blocks. The 64 B run holds `keep` and REFILL_BATCH
    // - 1 free blocks (`gone` among them); the torn word keeps all of the
    // 256 B run live.
    assert_eq!(audit.free_blocks, mvkv::pmem::alloc::REFILL_BATCH - 1);
    assert_eq!(audit.runs_by_class.iter().sum::<u64>(), 2);
    assert_eq!(audit.torn_tail_bytes, 0);
    assert_eq!(pool.read_u64(pool.root()), 42, "live data intact next to the wreck");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn pool_audit_is_clean_after_heavy_churn() {
    let store = PSkipList::create_volatile(128 << 20).unwrap();
    let mut oracle = Oracle::new();
    apply_script(&store, &mut oracle, &random_script(5000, 500, 0xAA));
    let audit = mvkv::pmem::recovery::audit(store.pool());
    assert_eq!(audit.indeterminate_blocks, 0);
    assert_eq!(audit.torn_tail_bytes, 0);
    assert!(audit.allocated_blocks >= 500, "at least one block per key");
}
