//! Property-based tests (proptest) over the core invariants.

mod common;

use common::{Op, Oracle};
use mvkv::cluster::{kway_merge, merge_two, merge_two_parallel};
use mvkv::core::{ESkipList, PSkipList, StoreSession, VersionedStore};
use mvkv::skiplist::SkipList;
use proptest::prelude::*;

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..key_space, 0u64..(1 << 40)).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..key_space).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn eskiplist_matches_oracle(script in proptest::collection::vec(op_strategy(40), 1..200)) {
        let store = ESkipList::new();
        let mut oracle = Oracle::new();
        common::apply_script(&store, &mut oracle, &script);
        let max = oracle.version();
        let session = store.session();
        for v in [0, 1, max / 2, max, max + 3] {
            prop_assert_eq!(session.extract_snapshot(v), oracle.snapshot(v));
            for k in 0..40u64 {
                prop_assert_eq!(session.find(k, v), oracle.find(k, v));
            }
        }
    }

    #[test]
    fn pskiplist_matches_oracle_after_crash(
        script in proptest::collection::vec(op_strategy(30), 1..150)
    ) {
        let store = PSkipList::create_crash_sim(
            32 << 20,
            mvkv::pmem::CrashOptions::default(),
        ).unwrap();
        let mut oracle = Oracle::new();
        common::apply_script(&store, &mut oracle, &script);
        let image = store.crash_image().unwrap();
        let (recovered, stats) = PSkipList::open_image(&image, 2).unwrap();
        prop_assert_eq!(stats.watermark, oracle.version());
        let session = recovered.session();
        let max = oracle.version();
        for v in [1, max / 2, max] {
            prop_assert_eq!(session.extract_snapshot(v), oracle.snapshot(v));
        }
        for k in 0..30u64 {
            let got: Vec<(u64, Option<u64>)> = session
                .extract_history(k)
                .into_iter()
                .map(|r| (r.version, r.value))
                .collect();
            prop_assert_eq!(got, oracle.history(k));
        }
    }

    #[test]
    fn skiplist_matches_btreemap(entries in proptest::collection::vec((0u64..500, 0u64..1000), 0..400)) {
        let list = SkipList::new();
        let mut model = std::collections::BTreeMap::new();
        for &(k, v) in &entries {
            match list.insert_with(k, || v) {
                mvkv::skiplist::InsertOutcome::Inserted(_) => {
                    prop_assert!(model.insert(k, v).is_none());
                }
                mvkv::skiplist::InsertOutcome::Lost { existing, .. } => {
                    prop_assert_eq!(model.get(&k).copied(), Some(existing));
                }
            }
        }
        let got: Vec<(u64, u64)> = list.iter().map(|(&k, v)| (k, v)).collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn parallel_merge_is_sound(
        mut a in proptest::collection::vec((0u64..10_000, 0u64..100), 0..600),
        mut b in proptest::collection::vec((0u64..10_000, 100u64..200), 0..600),
        threads in 1usize..9,
    ) {
        a.sort_unstable_by_key(|p| p.0);
        a.dedup_by_key(|p| p.0);
        b.sort_unstable_by_key(|p| p.0);
        b.dedup_by_key(|p| p.0);
        // Keys may overlap between a and b; the kernel must keep both
        // occurrences in a stable order. Make b's keys odd to guarantee
        // global sortedness of the result for the strict check.
        for p in &mut b {
            p.0 = p.0 * 2 + 1;
        }
        for p in &mut a {
            p.0 *= 2;
        }
        a.sort_unstable_by_key(|p| p.0);
        b.sort_unstable_by_key(|p| p.0);
        let mut expected = Vec::new();
        merge_two(&a, &b, &mut expected);
        let got = merge_two_parallel(&a, &b, threads);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn kway_merge_is_sorted_permutation(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0u64..100_000, 0u64..10), 0..80),
            0..8,
        )
    ) {
        let inputs: Vec<Vec<(u64, u64)>> = inputs
            .into_iter()
            .map(|mut v| {
                v.sort_unstable_by_key(|p| p.0);
                v.dedup_by_key(|p| p.0);
                v
            })
            .collect();
        let merged = kway_merge(&inputs);
        let total: usize = inputs.iter().map(Vec::len).sum();
        prop_assert_eq!(merged.len(), total);
        prop_assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut expected: Vec<(u64, u64)> = inputs.concat();
        expected.sort_unstable();
        let mut got = merged.clone();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn history_binary_search_equals_linear_scan(
        gaps in proptest::collection::vec(1u64..20, 1..120),
        probes in proptest::collection::vec(0u64..3000, 1..50),
    ) {
        let storage = mvkv::vhistory::EHistory::new();
        let hist = mvkv::vhistory::History::new(&storage);
        let mut versions = Vec::new();
        let mut v = 0u64;
        for (i, g) in gaps.iter().enumerate() {
            v += g;
            let value = if i % 5 == 4 { mvkv::vhistory::TOMBSTONE } else { i as u64 };
            hist.append(v, value);
            versions.push((v, value));
        }
        let fc = v;
        for &probe in &probes {
            let expected = versions.iter().rev().find(|&&(ver, _)| ver <= probe).map(|&(_, val)| val);
            prop_assert_eq!(hist.find_raw(probe, fc), expected);
        }
    }

    #[test]
    fn pmem_allocator_blocks_never_overlap(
        ops in proptest::collection::vec((0usize..3, 1usize..6000), 1..300)
    ) {
        // op.0: 0/1 = alloc (two size flavours), 2 = free a random live block.
        let pool = mvkv::pmem::PmemPool::create_volatile(32 << 20).unwrap();
        let mut live: Vec<(u64, usize)> = Vec::new();
        for (kind, size) in ops {
            match kind {
                0 | 1 => {
                    let len = if kind == 0 { size % 256 + 1 } else { size };
                    let off = pool.alloc(len).unwrap();
                    let cap = pool.block_capacity(off);
                    prop_assert!(cap >= len);
                    prop_assert_eq!(off % 16, 0);
                    // No overlap with any live block.
                    for &(o, c) in &live {
                        prop_assert!(
                            off + cap as u64 <= o || o + c as u64 <= off,
                            "overlap: [{},+{}) vs [{},+{})", off, cap, o, c
                        );
                    }
                    live.push((off, cap));
                }
                _ => {
                    if !live.is_empty() {
                        let victim = size % live.len();
                        let (off, _) = live.swap_remove(victim);
                        pool.dealloc(off);
                    }
                }
            }
        }
        // The audit agrees with our bookkeeping.
        let audit = mvkv::pmem::recovery::audit(&pool);
        prop_assert_eq!(audit.allocated_blocks as usize, live.len());
        prop_assert_eq!(audit.indeterminate_blocks, 0);
    }

    #[test]
    fn minidb_engine_matches_model_across_reopens(
        rows in proptest::collection::vec((0u64..50, 0u64..1000), 1..120),
        reopen_at in proptest::collection::vec(1usize..120, 0..3),
    ) {
        let path = std::env::temp_dir().join(format!(
            "minidb-prop-{}-{:x}.db",
            std::process::id(),
            rows.len() * 31 + reopen_at.len()
        ));
        let mut wal = path.clone().into_os_string();
        wal.push(".wal");
        let wal = std::path::PathBuf::from(wal);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);

        let opts = mvkv::minidb::DbOptions { durable: true, ..Default::default() };
        let mut db = mvkv::minidb::Database::create_file(&path, opts).unwrap();
        let mut model: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        for (i, &(key, value)) in rows.iter().enumerate() {
            if reopen_at.contains(&i) {
                drop(db);
                db = mvkv::minidb::Database::open_file(&path, opts).unwrap();
            }
            let version = i as u64 + 1;
            db.connect().insert_row(version, key, value).unwrap();
            model.insert((key, version), value);
        }
        let conn = db.connect();
        for probe_key in 0..50u64 {
            for probe_v in [1u64, rows.len() as u64 / 2, rows.len() as u64] {
                let want = model
                    .range((probe_key, 0)..=(probe_key, probe_v))
                    .next_back()
                    .map(|(_, &v)| v);
                prop_assert_eq!(conn.find_raw(probe_key, probe_v), want);
            }
        }
        drop(conn);
        drop(db);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn clock_watermark_is_max_contiguous(
        complete_order in Just((1..=50u64).collect::<Vec<u64>>()).prop_shuffle()
    ) {
        let clock = mvkv::vhistory::VersionClock::with_window(128);
        for _ in 0..complete_order.len() {
            clock.issue();
        }
        let mut done = std::collections::BTreeSet::new();
        for &v in &complete_order {
            clock.complete(v);
            done.insert(v);
            let mut expected = 0u64;
            while done.contains(&(expected + 1)) {
                expected += 1;
            }
            prop_assert_eq!(clock.watermark(), expected);
        }
    }

    /// Verify-on-read: with an arbitrary mix of valid and media-corrupted
    /// slots, reads never surface a checksum-invalid payload. A corrupted
    /// slot may *hide* records (the reader treats it as damage and reports
    /// what still verifies), but every surfaced value must be the payload
    /// of some uncorrupted record at or below the probed version — never a
    /// fabricated or torn value, and never a record from the future.
    ///
    /// Masks are confined to the low 32 bits: CRC32C restricted to a
    /// 32-bit window is injective, so every nonzero mask is guaranteed to
    /// invalidate the slot's checksum (a full-width mask could land in the
    /// CRC's null space and go undetected — that residual risk is inherent
    /// to any 32-bit integrity code).
    #[test]
    fn verify_on_read_never_surfaces_corrupt_slots(
        n in 1u64..60,
        corruptions in proptest::collection::vec(
            (0u64..60, 0usize..3, 1u64..=u32::MAX as u64),
            0..20,
        ),
    ) {
        use mvkv::vhistory::{Cursor, History, PHistory, Slots};
        use std::sync::atomic::Ordering;

        let pool = mvkv::pmem::PmemPool::create_volatile(1 << 22).unwrap();
        let h = History::new(PHistory::create(&pool).unwrap());
        let value_of = |v: u64| v.wrapping_mul(0x9E37_79B9) | (1 << 40);
        for v in 1..=n {
            h.append(v, value_of(v));
        }
        // Make every slot visible *before* damaging anything: tail
        // extension walks the stamps, which is recovery's job to
        // repair, not verify-on-read's.
        prop_assert_eq!(h.records(n).len() as u64, n);

        let mut corrupted = std::collections::BTreeSet::new();
        let mut cur = Cursor::new();
        h.slots().fill(&mut cur, n);
        for &(slot, field, mask) in &corruptions {
            let idx = slot % n;
            let e = cur.entry(idx);
            let word = [&e.version, &e.value, &e.crc_done][field];
            word.store(word.load(Ordering::Relaxed) ^ mask, Ordering::Relaxed);
            corrupted.insert(idx);
        }
        // Valid surviving records, by version (slot idx holds version idx+1).
        let valid: std::collections::BTreeMap<u64, u64> = (1..=n)
            .filter(|v| !corrupted.contains(&(v - 1)))
            .map(|v| (v, value_of(v)))
            .collect();

        for probe in [1, n / 2, n.saturating_sub(1).max(1), n, n + 5] {
            match h.find_raw(probe, n) {
                None => {} // damage may hide records; absence is honest
                Some(got) => {
                    let ok = valid.range(..=probe).any(|(_, &val)| val == got);
                    prop_assert!(
                        ok,
                        "probe {} surfaced {:#x}, not any valid record ≤ probe \
                         (n={}, corrupted={:?})",
                        probe, got, n, corrupted
                    );
                }
            }
        }
        // Bulk readers are exact: they skip corrupt slots and nothing else.
        let records: Vec<(u64, u64)> = h
            .records(n)
            .iter()
            .map(|r| (r.version, r.value.unwrap()))
            .collect();
        let want: Vec<(u64, u64)> = valid.iter().map(|(&v, &val)| (v, val)).collect();
        prop_assert_eq!(records, want);
        let latest = h.latest(n).map(|r| (r.version, r.value.unwrap()));
        prop_assert_eq!(latest, valid.iter().next_back().map(|(&v, &val)| (v, val)));
    }
}
