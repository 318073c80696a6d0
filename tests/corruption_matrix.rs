//! Corruption matrix (tentpole acceptance): seeded media-fault patterns ×
//! salvage recovery.
//!
//! For every pattern (bit flips, torn cache lines, zeroed blocks,
//! scrambled blocks, truncation) and every seed, opening the damaged image
//! in salvage mode must:
//!
//! * never panic — damage is a typed [`mvkv::core::RecoveryError`] or a
//!   quarantined degradation, never an unwind;
//! * never surface silently wrong data — every surfaced value verifies
//!   against the write-time oracle (the CRC layer guarantees a corrupted
//!   record fails verification rather than reading back changed);
//! * account for loss — if any oracle key is missing from the recovered
//!   state, the open reports `Degraded` with a non-empty quarantine
//!   report, never `Clean`;
//! * converge — a post-salvage [`mvkv::core::PSkipList::scrub`] finds zero
//!   corrupt records, and the store accepts new writes.
//!
//! The seed matrix is env-parameterized for CI: set `MVKV_CORRUPT_SEED`
//! to sweep a single seed per job.

use mvkv::core::{
    CorruptionClass, PSkipList, RecoveryStatus, SalvageOpen, StoreSession, VersionedStore,
};
use mvkv::keychain::KeyChain;
use mvkv::pmem::{CorruptOptions, CrashOptions, PPtr};
use mvkv::vhistory::pslots::HistoryHdr;
use mvkv::vhistory::slots::SEG_HDR_SIZE;

/// Seeds under test: `MVKV_CORRUPT_SEED` pins one (CI matrix), otherwise a
/// fixed three-seed sweep runs locally.
fn seeds() -> Vec<u64> {
    match std::env::var("MVKV_CORRUPT_SEED") {
        Ok(s) => vec![s.trim().parse().expect("MVKV_CORRUPT_SEED must be a u64")],
        Err(_) => vec![0xC0FF_EE01, 0xC0FF_EE02, 0xC0FF_EE03],
    }
}

const POOL: usize = 1 << 24;
const KEYS: u64 = 400;

/// Write-time oracle: the value every surfaced read must reproduce.
fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Builds a store with `KEYS` committed keys and returns its crash image.
fn build_image() -> Vec<u8> {
    let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
    {
        let s = store.session();
        for k in 1..=KEYS {
            s.insert(k, value_of(k));
        }
    }
    store.wait_writes_complete();
    store.crash_image().unwrap()
}

/// Salvage-opens `image` and runs the full invariant battery. Returns the
/// outcome for pattern-specific assertions; `None` if the damage was a
/// typed hard error (load-bearing structure hit — allowed, not a panic).
fn salvage_and_check(image: &[u8], label: &str) -> Option<SalvageOpen> {
    let out = match PSkipList::open_image_salvage(image, 4) {
        Ok(out) => out,
        Err(e) => {
            // Hard errors are typed and only legitimate for load-bearing
            // structures; a worker panic would mean we unwound somewhere.
            let text = e.to_string();
            assert!(!text.contains("panicked"), "{label}: worker panic leaked: {text}");
            return None;
        }
    };
    let s = out.store.session();
    let snap = s.extract_snapshot(out.store.tag());
    // Never silently wrong data: every surfaced pair matches the oracle.
    for &(k, v) in &snap {
        assert!((1..=KEYS).contains(&k), "{label}: fabricated key {k}");
        assert_eq!(v, value_of(k), "{label}: key {k} surfaced a wrong value");
    }
    // Loss must be accounted for: missing keys ⇒ Degraded, never Clean.
    let missing = KEYS as usize - snap.len();
    match out.status {
        RecoveryStatus::Clean => {
            assert!(out.report.is_empty(), "{label}: Clean status with non-empty report");
            assert_eq!(missing, 0, "{label}: {missing} keys lost but status is Clean");
        }
        RecoveryStatus::Degraded { recovered, quarantined } => {
            assert!(!out.report.is_empty(), "{label}: Degraded status with empty report");
            assert_eq!(quarantined, out.report.total(), "{label}: quarantine count drifted");
            assert_eq!(recovered, out.stats.rebuilt_keys, "{label}: recovered count drifted");
        }
    }
    if missing > 0 {
        assert!(
            matches!(out.status, RecoveryStatus::Degraded { .. }),
            "{label}: {missing} keys lost silently"
        );
    }
    // CI artifact: drop the rendered quarantine report where the workflow
    // can pick it up (MVKV_CORRUPT_REPORT_DIR, see .github/workflows).
    if let Ok(dir) = std::env::var("MVKV_CORRUPT_REPORT_DIR") {
        let name: String =
            label.chars().map(|c| if c.is_alphanumeric() { c } else { '-' }).collect();
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(
            std::path::Path::new(&dir).join(format!("{name}.txt")),
            out.report.render(),
        );
    }
    // Salvage must converge: everything the recovered store can reach now
    // verifies, and fresh writes land.
    let scrub = out.store.scrub();
    assert!(scrub.is_clean(), "{label}: post-salvage scrub found damage: {scrub:?}");
    let v = s.insert(KEYS + 1, value_of(KEYS + 1));
    assert_eq!(s.find(KEYS + 1, v), Some(value_of(KEYS + 1)), "{label}: store not writable");
    Some(out)
}

fn sweep(pattern: &str, opts_for: impl Fn(u64) -> CorruptOptions) {
    let clean = build_image();
    for seed in seeds() {
        let mut image = clean.clone();
        let faults = mvkv::pmem::corrupt::inject(&mut image, &opts_for(seed));
        assert!(!faults.is_empty(), "{pattern}/{seed:#x}: plan injected nothing");
        let label = format!("{pattern}/{seed:#x}");
        let _ = salvage_and_check(&image, &label);
    }
}

#[test]
fn bit_flip_matrix() {
    sweep("bit-flips", |seed| CorruptOptions::seeded(seed).bit_flips(16));
}

#[test]
fn torn_line_matrix() {
    sweep("torn-lines", |seed| CorruptOptions::seeded(seed).torn_lines(4));
}

#[test]
fn zeroed_block_matrix() {
    sweep("zeroed-blocks", |seed| CorruptOptions::seeded(seed).zeroed_blocks(2));
}

#[test]
fn scrambled_block_matrix() {
    sweep("scrambled-blocks", |seed| CorruptOptions::seeded(seed).scrambled_blocks(2));
}

#[test]
fn combined_fault_matrix() {
    sweep("combined", |seed| {
        CorruptOptions::seeded(seed).bit_flips(8).torn_lines(2).zeroed_blocks(1).scrambled_blocks(1)
    });
}

#[test]
fn truncated_image_reattaches_via_padding() {
    let clean = build_image();
    for seed in seeds() {
        for cut in [512u64, 4096, 65536] {
            let mut image = clean.clone();
            let faults = mvkv::pmem::corrupt::inject(
                &mut image,
                &CorruptOptions::seeded(seed).truncate_bytes(cut),
            );
            assert_eq!(faults.len(), 1, "truncation is a single fault");
            assert!(image.len() < clean.len(), "image must actually shrink");
            // A plain open refuses the short image; salvage re-pads it.
            assert!(PSkipList::open_image(&image, 2).is_err());
            let label = format!("truncate-{cut}/{seed:#x}");
            let out = salvage_and_check(&image, &label)
                .unwrap_or_else(|| panic!("{label}: truncation must be salvageable"));
            assert_eq!(out.report.padded_bytes, cut, "{label}: padding not reported");
        }
    }
}

#[test]
fn clean_image_salvages_clean() {
    let image = build_image();
    let out = salvage_and_check(&image, "clean").expect("clean image must open");
    assert_eq!(out.status, RecoveryStatus::Clean);
    assert_eq!(out.report.total(), 0);
    assert_eq!(out.stats.rebuilt_keys, KEYS);
}

/// A chain pair whose history offset leaves room for the header at the end of
/// the pool but not for the whole block behind it — what a bit flip in a
/// pair's offset word that happened to re-validate would look like. The
/// inline entries of such a history lie out of bounds: the key must be
/// quarantined as unreachable before anything reads them.
#[test]
fn history_block_straddling_the_pool_end_is_unreachable() {
    let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
    let s = store.session();
    for k in 1..=KEYS {
        s.insert(k, value_of(k));
    }
    store.wait_writes_complete();
    let pool = store.pool();
    // The root's first word is the key chain.
    let chain = KeyChain::open(pool, PPtr::from_off(pool.read_u64(pool.root())));
    let len = POOL as u64;
    let block = std::mem::size_of::<HistoryHdr>() as u64;
    // Header only, half a block, one word short of a whole one.
    let short =
        [(9001, len - SEG_HDR_SIZE as u64), (9002, len - block / 2), (9003, len - block + 8)];
    for (key, hist) in short {
        chain.append(key, hist).unwrap();
    }
    pool.sync_all();
    let image = store.crash_image().unwrap();

    let out = salvage_and_check(&image, "short-history-block").expect("salvageable");
    assert_eq!(out.stats.rebuilt_keys, KEYS, "no unreachable history may enter the index");
    let mut quarantined: Vec<(u64, CorruptionClass)> =
        out.report.keys.iter().map(|q| (q.key, q.class)).collect();
    quarantined.sort_unstable_by_key(|&(key, _)| key);
    assert_eq!(quarantined, short.map(|(key, _)| (key, CorruptionClass::UnreachableHistory)));
    assert_eq!(out.status, RecoveryStatus::Degraded { recovered: KEYS, quarantined: 3 });
    let rs = out.store.session();
    for (key, _) in short {
        assert_eq!(rs.find(key, u64::MAX), None);
    }
}

/// Guards the tentpole's fence budget end-to-end: folding CRCs into the
/// prepare/publish split must not add a fence to the steady-state path.
#[test]
fn publish_fence_budget_stays_one_per_batch() {
    let store = PSkipList::create_crash_sim(POOL, CrashOptions::default()).unwrap();
    let s = store.session();
    let pairs: Vec<(u64, u64)> = (1..=16u64).map(|k| (k, value_of(k))).collect();
    for _ in 0..4 {
        // Warm up past the three inline slots and segment 1's adoption:
        // allocations fence on their own.
        s.insert_batch(&pairs);
    }
    let before = store.pool().fence_count().unwrap();
    s.insert_batch(&pairs);
    let after = store.pool().fence_count().unwrap();
    assert_eq!(after - before, 1, "CRC folding must not add publish fences");
}
