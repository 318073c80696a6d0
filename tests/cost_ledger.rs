//! The per-operation cost ledger: what each public operation of a
//! `PSkipList` costs in persistent memory, at T = 1 on a crash-simulation
//! pool, which counts every primitive the store issues.
//!
//! * `fences` — ordering fences (`sfence` on real PM);
//! * `persists` — non-empty `persist` calls;
//! * `lines` — 64-byte lines those calls covered (one `clwb` each on real
//!   PM), summed over the calls;
//! * `blocks` / `bytes` — allocated blocks and their payload bytes, as the
//!   heap audit counts them;
//! * `unflushed` — lines whose cached bytes differ from the media when the
//!   step returns: stores a power failure right then would drop.
//!
//! Every column but `unflushed` is the change of its counter across one step
//! of a single store's life, so a row whose step allocates shows its
//! amortized costs (DESIGN.md §13.3): an allocator refill (one fence for a
//! run of up to 64 blocks), an adopted key-chain block (two: the large
//! block's header, then the adoption). An adopted history segment costs no
//! fence: the append's own publish fence orders it before its link. A batch
//! chunk that holds a key twice across a segment boundary pays two: the
//! later pair links a segment of its own ahead of the chunk fence, and the
//! pair that opened the segment moves its entry into it.
//! The whole table is pinned as one string: a fence, flush or allocation
//! added to or dropped from any operation's path fails here, as does a line
//! an operation leaves unflushed, and the message names the rows that moved.
//! A deliberate change re-pins the rows it moves and says so.

use mvkv::core::api::LabeledTags;
use mvkv::core::{PSkipList, StoreSession, VersionedStore};
use mvkv::pmem::recovery::audit;
use mvkv::pmem::{CrashOptions, PmemPool};

const POOL: usize = 16 << 20;

/// The first fresh key whose history block the shard has to refill for: the
/// store's root and keys 0 to 6 fill the 64-byte class's first run.
const REFILL_KEY: u64 = 7;

/// The counters of a row, in column order.
fn counters(pool: &PmemPool) -> [i64; 6] {
    let heap = audit(pool);
    [
        pool.fence_count().expect("a crash-sim pool") as i64,
        pool.persist_count().unwrap() as i64,
        pool.lines_flushed().unwrap() as i64,
        heap.allocated_blocks as i64,
        heap.allocated_bytes as i64,
        pool.unflushed_lines().unwrap().len() as i64,
    ]
}

/// The column a row reads as it stands after the step, not as a difference.
const UNFLUSHED: usize = 5;

#[derive(Default)]
struct Ledger(Vec<(String, [i64; 6])>);

impl Ledger {
    fn row(&mut self, op: &str, before: [i64; 6], after: [i64; 6]) {
        let cost = |i: usize| if i == UNFLUSHED { after[i] } else { after[i] - before[i] };
        self.0.push((op.to_string(), std::array::from_fn(cost)));
    }

    /// Runs `step` on `pool`'s store and records what it cost.
    fn step<R>(&mut self, op: &str, pool: &PmemPool, step: impl FnOnce() -> R) {
        let before = counters(pool);
        step();
        self.row(op, before, counters(pool));
    }

    fn render(&self) -> String {
        let mut out = format!(
            "{:<52}{:>7}{:>9}{:>7}{:>7}{:>8}{:>10}\n",
            "operation", "fences", "persists", "lines", "blocks", "bytes", "unflushed"
        );
        for (op, [f, p, l, b, by, u]) in &self.0 {
            out += &format!("{op:<52}{f:>7}{p:>9}{l:>7}{b:>7}{by:>8}{u:>10}\n");
        }
        out
    }
}

const EXPECTED: &str = "\
operation                                            fences persists  lines blocks   bytes unflushed
create (an empty store)                                   6        9      9      3     128         0
insert, the first key (adopts a key-chain block)          3       12    140      2    8288         0
insert, a fresh key                                       1        8      8      1      64         0
insert, its 2nd version (inline slot)                     1        3      3      0       0         0
insert, its 3rd version (adopts segment 1, refills)       2        7     10      1     192         0
insert, its 4th version                                   1        3      3      0       0         0
insert, another key's 3rd version (adopts)                1        6      8      1     192         0
remove (a tombstone append)                               1        3      3      0       0         0
find                                                      0        1      1      0       0         0
insert, fresh key 7 (refills the class)                   2        9      9      1      64         0
insert, 16 fresh keys                                    17      129    129     16    1024         0
insert, 488 fresh keys (fill the block)                 499     3915   3915    488   31232         0
insert, a fresh key (adopts a key-chain block)            3       12    140      2    8288         0
insert_batch, 16 fresh keys                               2      129    130     16    1024         0
insert_batch, 16 existing keys (2nd versions)             1       48     48      0       0         0
insert_batch, 16 existing keys (adopt segment 1)          2       97    129     16    3072         0
insert_batch, 16 existing keys (4th versions)             1       48     48      0       0         0
insert_batch, 16 existing keys (5th versions)             1       48     48      0       0         0
insert_batch, 1024 fresh keys (one chunk)                21     8216   8474   1026   81984         0
insert_batch, the same 1024 keys (2nd versions)           1     3072   3072      0       0         0
insert_batch, 1025 fresh keys (two chunks)               22     8224   8482   1027   82048         0
insert_batch, the same 1025 keys (2nd versions)           2     3075   3075      0       0         0
insert_batch, one key twice (segment 1, a lost link)      3       13     17      1     192         0
tag                                                       0        0      0      0       0         0
tag_labeled, the first (adopts a tag-chain block)         2        7     23      1    1536         0
tag_labeled, the second                                   0        3      3      0       0         0
extract_snapshot                                          0     2577   2577      0       0         0
compact_into, 2577 surviving keys                      2645    20707  21497   2587  215936         0
reopen, 2577 keys, closed cleanly                         2        7      7      0       0         0
";

#[test]
fn every_public_operation_costs_what_the_ledger_says() {
    let mut ledger = Ledger::default();
    let pool = PmemPool::create_crash_sim(POOL, CrashOptions::default()).unwrap();
    let formatted = counters(&pool);
    let store = PSkipList::create(pool).unwrap();
    ledger.row("create (an empty store)", formatted, counters(store.pool()));
    let pool = store.pool();
    let s = store.session();

    ledger.step("insert, the first key (adopts a key-chain block)", pool, || s.insert(0, 1));
    ledger.step("insert, a fresh key", pool, || s.insert(1, 1));
    ledger.step("insert, its 2nd version (inline slot)", pool, || s.insert(1, 2));
    ledger.step("insert, its 3rd version (adopts segment 1, refills)", pool, || s.insert(1, 3));
    ledger.step("insert, its 4th version", pool, || s.insert(1, 4));
    s.insert(0, 2);
    ledger.step("insert, another key's 3rd version (adopts)", pool, || s.insert(0, 3));
    ledger.step("remove (a tombstone append)", pool, || s.remove(1));
    ledger.step("find", pool, || s.find(0, store.tag()));
    for k in 2..REFILL_KEY {
        s.insert(k, k);
    }
    ledger.step(&format!("insert, fresh key {REFILL_KEY} (refills the class)"), pool, || {
        s.insert(REFILL_KEY, 1)
    });
    ledger.step("insert, 16 fresh keys", pool, || {
        for k in 1000..1016 {
            s.insert(k, k);
        }
    });
    // Fill the first key-chain block; the next fresh key adopts the second.
    let (pairs, _, cap) = store.key_chain_fill();
    ledger.step(&format!("insert, {} fresh keys (fill the block)", cap - pairs), pool, || {
        for k in 2000..2000 + (cap - pairs) {
            s.insert(k, k);
        }
    });
    ledger.step("insert, a fresh key (adopts a key-chain block)", pool, || s.insert(3000, 1));

    // The same 16 keys five times over: a chunk publishes with one fence,
    // whatever its keys need allocated first.
    let pairs = |round: u64| -> Vec<(u64, u64)> { (1..=16).map(|k| (100 + k, round)).collect() };
    ledger.step("insert_batch, 16 fresh keys", pool, || s.insert_batch(&pairs(1)));
    ledger
        .step("insert_batch, 16 existing keys (2nd versions)", pool, || s.insert_batch(&pairs(2)));
    ledger.step("insert_batch, 16 existing keys (adopt segment 1)", pool, || {
        s.insert_batch(&pairs(3))
    });
    ledger
        .step("insert_batch, 16 existing keys (4th versions)", pool, || s.insert_batch(&pairs(4)));
    ledger
        .step("insert_batch, 16 existing keys (5th versions)", pool, || s.insert_batch(&pairs(5)));
    let chunk = |n: u64, base: u64, round: u64| -> Vec<(u64, u64)> {
        (base..base + n).map(|k| (k, round)).collect()
    };
    ledger.step("insert_batch, 1024 fresh keys (one chunk)", pool, || {
        s.insert_batch(&chunk(1024, 10_000, 1))
    });
    ledger.step("insert_batch, the same 1024 keys (2nd versions)", pool, || {
        s.insert_batch(&chunk(1024, 10_000, 2))
    });
    ledger.step("insert_batch, 1025 fresh keys (two chunks)", pool, || {
        s.insert_batch(&chunk(1025, 20_000, 1))
    });
    ledger.step("insert_batch, the same 1025 keys (2nd versions)", pool, || {
        s.insert_batch(&chunk(1025, 20_000, 2))
    });
    // Its 3rd and 4th versions in one chunk: the first pair leaves segment
    // 1 for its publish to link, the second links one of its own behind a
    // fence, and the first pair's link loses: it moves its entry, and fences.
    ledger.step("insert_batch, one key twice (segment 1, a lost link)", pool, || {
        s.insert_batch(&[(20_000, 3), (20_000, 4)])
    });

    ledger.step("tag", pool, || store.tag());
    ledger.step("tag_labeled, the first (adopts a tag-chain block)", pool, || store.tag_labeled(1));
    ledger.step("tag_labeled, the second", pool, || store.tag_labeled(2));
    ledger.step("extract_snapshot", pool, || s.extract_snapshot(store.tag()));
    store.wait_writes_complete();

    // A new store on a new pool: its own counters.
    let keys = store.key_count();
    let target = PmemPool::create_crash_sim(POOL, CrashOptions::default()).unwrap();
    let formatted = counters(&target);
    let (compacted, stats) = store.compact_into(target, store.tag()).unwrap();
    assert_eq!(stats.keys_kept, keys - 1, "the removed key is dropped");
    ledger.row(
        &format!("compact_into, {} surviving keys", stats.keys_kept),
        formatted,
        counters(compacted.pool()),
    );

    compacted.pool().sync_all();
    let image = compacted.crash_image().unwrap();
    let attached = counters(&PmemPool::open_image(&image).unwrap());
    let (reopened, restart) = PSkipList::open_image(&image, 1).unwrap();
    assert_eq!(restart.rebuilt_keys, stats.keys_kept);
    ledger.row(
        &format!("reopen, {} keys, closed cleanly", restart.rebuilt_keys),
        attached,
        counters(reopened.pool()),
    );

    let table = ledger.render();
    let moved: Vec<String> = table
        .lines()
        .zip(EXPECTED.lines())
        .filter(|(got, pinned)| got != pinned)
        .map(|(got, pinned)| format!("\n  pinned {pinned}\n  now    {got}"))
        .collect();
    assert_eq!(table, EXPECTED, "rows that moved:{}\n\nthe table now:\n{table}", moved.concat());
}

/// A chunk of 1024 pairs of one key, on a 4 MiB pool: its slots open eight
/// segments, and each costs two allocations and two fences — the segment a
/// later pair links ahead of the chunk fence, and the one the segment's
/// first pair allocated, moves its entry out of and frees — plus the chunk
/// fence, the refills and one fence a large block (segments 6 to 8) for its
/// header. It keeps what pair-by-pair inserts keep.
#[test]
fn a_chunk_of_one_key_pays_two_allocations_and_two_fences_a_segment() {
    let run = |batch: bool| {
        let store = PSkipList::create(
            PmemPool::create_crash_sim(4 << 20, CrashOptions::default()).unwrap(),
        )
        .unwrap();
        let s = store.session();
        s.insert(1, 1);
        s.insert(1, 2);
        let pool = store.pool();
        let heap = || {
            let stats = pool.alloc_stats();
            [stats.total_allocs, stats.large_allocs, stats.shard_refills.iter().sum()]
        };
        let (before, heap_before) = (counters(pool), heap());
        let pairs: Vec<(u64, u64)> = (3..3 + 1024).map(|v| (1, v)).collect();
        if batch {
            s.insert_batch(&pairs);
        } else {
            for &(k, v) in &pairs {
                s.insert(k, v);
            }
        }
        assert_eq!(s.find(1, store.tag()), Some(1026));
        let mut ledger = Ledger::default();
        ledger.row("a chunk", before, counters(pool));
        let heap_after = heap();
        (
            ledger.0[0].1,
            std::array::from_fn::<i64, 3, _>(|i| (heap_after[i] - heap_before[i]) as i64),
        )
    };
    let ([fences, _, _, blocks, bytes, unflushed], [allocs, large, refills]) = run(true);
    let ([_, _, _, kept, kept_bytes, _], _) = run(false);
    assert_eq!((blocks, bytes), (8, 96 * (2 + 4 + 8 + 16 + 32 + 64 + 128 + 256)));
    assert_eq!((blocks, bytes), (kept, kept_bytes), "what pair-by-pair inserts keep");
    assert_eq!((allocs, large, unflushed), (16, 6, 0));
    assert_eq!(fences, 1 + 2 * 8 + refills + large);
}
