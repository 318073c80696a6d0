//! Bounded model checking of the lock-free insert protocol (Algorithm 2).
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p mvkv-skiplist --release`
//!
//! These models drive the REAL `SkipList::insert_with` under exhaustive
//! (preemption-bounded) interleavings via the `mvkv-sync` facade: every
//! atomic in the list is a scheduling point, so the level-0 linearizing CAS,
//! the tower linking loops and the duplicate-key loser cleanup are all
//! explored against a concurrent second inserter.

#![cfg(loom)]

use mvkv_skiplist::SkipList;
use mvkv_sync::sync::Arc;
use mvkv_sync::{model, thread};

/// Two threads insert *distinct* keys: both must end up linked, in key
/// order, on every interleaving of the tower-linking CASes.
#[test]
fn concurrent_distinct_inserts_both_linked_in_order() {
    model(|| {
        let list = Arc::new(SkipList::<u64>::new());
        let l2 = list.clone();
        let t = thread::spawn(move || {
            l2.insert_with(2u64, || 20);
        });
        list.insert_with(1u64, || 10);
        t.join().unwrap();

        assert_eq!(list.get(&1), Some(10));
        assert_eq!(list.get(&2), Some(20));
        assert_eq!(list.len(), 2);
        let keys: Vec<u64> = list.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![1, 2], "level-0 order broken by an interleaving");
    });
}

/// Two threads insert the SAME key: exactly one may win the level-0 CAS;
/// the loser must observe the winner's payload and get its own payload back
/// for cleanup, and the list must contain the key exactly once.
#[test]
fn duplicate_insert_race_has_exactly_one_winner() {
    model(|| {
        let list = Arc::new(SkipList::<u64>::new());
        let l2 = list.clone();
        let t = thread::spawn(move || l2.insert_with(7u64, || 70));
        let mine = list.insert_with(7u64, || 71);
        let theirs = t.join().unwrap();

        assert_eq!(
            u32::from(mine.inserted()) + u32::from(theirs.inserted()),
            1,
            "exactly one inserter may win: {mine:?} vs {theirs:?}"
        );
        let installed = list.get(&7).expect("key must be present");
        assert!(installed == 70 || installed == 71);
        assert_eq!(mine.payload(), installed, "loser must adopt the winner's payload");
        assert_eq!(theirs.payload(), installed);
        if let mvkv_skiplist::InsertOutcome::Lost { yours: Some(y), .. } = mine {
            assert_eq!(y, 71, "loser gets its own payload back for reclamation");
        }
        if let mvkv_skiplist::InsertOutcome::Lost { yours: Some(y), .. } = theirs {
            assert_eq!(y, 70);
        }
        assert_eq!(list.len(), 1);
        assert_eq!(list.iter().count(), 1, "duplicate node must never be reachable");
    });
}

/// An inserter racing a reader: the reader may see the key or not, but a
/// visible key always carries a fully initialized payload (the node is
/// published by the level-0 CAS only after its fields are written).
#[test]
fn reader_never_sees_partially_initialized_node() {
    model(|| {
        let list = Arc::new(SkipList::<u64>::new());
        let l2 = list.clone();
        let t = thread::spawn(move || {
            l2.insert_with(5u64, || 50);
        });
        match list.get(&5) {
            None => {}
            Some(v) => assert_eq!(v, 50, "published node must carry its payload"),
        }
        t.join().unwrap();
        assert_eq!(list.get(&5), Some(50));
    });
}

/// A reader racing two inserters whose towers reach the upper levels.
///
/// The read descent returns at the first level where it meets the key, so a
/// node may be found through a level-1+ link without level 0 ever being
/// walked. That is only sound if a node visible at an upper level is already
/// published at level 0 with its payload: whenever `get` reports a key, the
/// payload must be the inserter's, a level-0 walk started afterwards must
/// contain the key, and a seek to it must land on it and continue in order.
///
/// Heights in the model build are drawn from one shared counter whose first
/// three draws are 1 and whose next two are 2 and 5: the three keys inserted
/// up front (above the contended range, so the descents stay short) use up
/// the short towers and leave the tall ones to the racing inserters.
#[test]
fn reader_never_finds_a_node_at_an_upper_level_before_level_zero() {
    model(|| {
        let list = Arc::new(SkipList::new());
        for k in [101u64, 102, 103] {
            list.insert_with(k, || k * 10);
        }
        let inserters: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|k| {
                let list = list.clone();
                thread::spawn(move || {
                    list.insert_with(k, || k * 10);
                })
            })
            .collect();

        for k in [2u64, 1] {
            if let Some(v) = list.get(&k) {
                assert_eq!(v, k * 10, "published node must carry its payload");
                let walked: Vec<u64> = list.iter().map(|(&key, _)| key).collect();
                assert!(walked.contains(&k), "key {k} found by get but not at level 0: {walked:?}");
                assert!(walked.windows(2).all(|w| w[0] < w[1]), "level-0 order broken: {walked:?}");
                let mut from = list.range_from(&k);
                assert_eq!(from.next(), Some((&k, k * 10)), "seek must land on the found key");
                let after = from.next().map(|(&key, _)| key);
                assert!(
                    after == Some(101) || (k == 1 && after == Some(2)),
                    "unpublished level-0 link after {k}: {after:?}"
                );
            }
        }

        for t in inserters {
            t.join().unwrap();
        }
        let keys: Vec<u64> = list.iter().map(|(&k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 101, 102, 103]);
        for k in keys {
            assert_eq!(list.get(&k), Some(k * 10));
        }
    });
}

/// An inserter and a reader on a bulk-built list.
///
/// `fragment` and `adopt` link nodes with plain stores and no CAS, which is
/// sound only because nobody else can reach the list until `adopt` has
/// returned and the list has been handed over (here: `Arc` + `spawn`). From
/// then on the bulk-built nodes must behave like inserted ones: the reader
/// finds every one of them at whatever level the descent meets it, and the
/// inserter's CASes land between them. A fragment's towers follow rank, so
/// the 4th key of the low fragment, 40, is the one that reaches level 1; the
/// racing insert goes between it and 50, the high fragment's one node, and
/// `get(50)` steps down from level 1 at that tower. The payloads are 32 bits
/// wide, as in the store's index, so a one-level node is 16 bytes.
#[test]
fn inserter_and_reader_on_a_bulk_built_list() {
    model(|| {
        let mut list: SkipList<u64, u32> = SkipList::new();
        let low = list.fragment([(10, 100), (20, 200), (30, 300), (40, 400)]);
        let high = list.fragment([(50, 500)]);
        list.adopt([low, high]);
        assert_eq!(list.levels(), [5, 1], "40 is a tower");
        let list = Arc::new(list);
        let l2 = list.clone();
        let inserter = thread::spawn(move || l2.insert_with(45, || 450));

        for k in [50u32, 40, 10] {
            assert_eq!(list.get(&k.into()), Some(k * 10), "bulk-built key {k} must be visible");
        }
        if let Some(v) = list.get(&45) {
            assert_eq!(v, 450, "published node must carry its payload");
        }
        let walked: Vec<u64> = list.range_from(&35).map(|(&k, _)| k).collect();
        assert!(walked == [40, 50] || walked == [40, 45, 50], "level-0 order broken: {walked:?}");

        assert!(inserter.join().unwrap().inserted());
        assert_eq!(list.len(), 6);
        let pairs: Vec<(u64, u32)> = list.iter().map(|(&k, v)| (k, v)).collect();
        assert_eq!(pairs, [(10, 100), (20, 200), (30, 300), (40, 400), (45, 450), (50, 500)]);
    });
}

/// A key that counts its drops (on a plain counter: the model checker need
/// not schedule around it); ordered by `id` alone.
struct Counted {
    id: u64,
    drops: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Counted {}
impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Counted {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

/// The writer's early exit, duplicate-key side: two inserters of one key
/// whose towers are both at least two high (the three keys inserted up front
/// use up the model build's short draws; the racers get 2 and 5).
///
/// The write descent returns at the first level where it meets the key, so
/// the loser of the level-0 CAS may meet the winner through a level-1+ link
/// the winner has just made, never having seen it at level 0. Wherever it
/// meets it: exactly one `Inserted`; the loser reports the winner's payload
/// and hands its own back if its factory ran; the loser's key — pre-check, or
/// inside its unpublished node — is dropped exactly once and the winner's
/// only with the list.
#[test]
fn duplicate_race_loser_may_meet_a_tall_winner_above_level_zero() {
    use mvkv_skiplist::InsertOutcome::{Inserted, Lost};
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    // Across all schedules: how often the loser got as far as building a node.
    static NODES_FREED: AtomicUsize = AtomicUsize::new(0);
    model(|| {
        let drops = std::sync::Arc::new(AtomicUsize::new(0));
        let key = |id| Counted { id, drops: drops.clone() };
        let list = Arc::new(SkipList::new());
        for id in [101u64, 102, 103] {
            list.insert_with(key(id), || id * 10);
        }
        let (l2, k2) = (list.clone(), key(7));
        let t = thread::spawn(move || l2.insert_with(k2, || 70));
        let mine = list.insert_with(key(7), || 71);
        let theirs = t.join().unwrap();

        let (won, lost, losers) =
            if mine.inserted() { (mine, theirs, 70) } else { (theirs, mine, 71) };
        match (won, lost) {
            (Inserted(installed), Lost { existing, yours }) => {
                assert_eq!(existing, installed, "the loser adopts the winner's payload");
                assert!(yours.is_none() || yours == Some(losers), "{lost:?}");
                NODES_FREED.fetch_add(usize::from(yours.is_some()), SeqCst);
            }
            other => panic!("exactly one inserter may win: {other:?}"),
        }
        assert_eq!(drops.load(SeqCst), 1, "the loser's key is dropped once, the winner's not");
        assert_eq!(list.len(), 4);
        let probe = Counted { id: 7, drops: Default::default() }; // counts apart
        assert_eq!(list.get(&probe), Some(mine.payload()));
        let ids: Vec<u64> = list.iter().map(|(k, _)| k.id).collect();
        assert_eq!(ids, [7, 101, 102, 103], "the loser's node must never be reachable");
        drop(Arc::into_inner(list).expect("the inserter was joined"));
        assert_eq!(drops.load(SeqCst), 5);
    });
    assert!(NODES_FREED.load(SeqCst) > 0, "no schedule raced past the pre-check");
}

/// The writer's early exit, tower side: two inserters of adjacent keys whose
/// towers are both at least two high and share the head as predecessor at
/// every upper level, so whichever links level 1 second fails its CAS there
/// and re-scans for a key that is already published — its own. The re-scan
/// stops where it meets its own node (level 0, the only level it is linked
/// at), with every level above reported afresh; the tower is then linked
/// against those. While that goes on a key whose insert has returned, and
/// every key inserted up front, is found by `get`; afterwards every key is,
/// every gap is a miss, and every seek lands in order.
#[test]
fn tower_rescan_stops_at_its_own_node() {
    model(|| {
        let list = Arc::new(SkipList::new());
        for k in [101u64, 102, 103] {
            list.insert_with(k, || k * 10);
        }
        let insert_and_look = |list: &SkipList<u64>, k: u64| {
            assert!(list.insert_with(k, || k * 10).inserted());
            for seen in [k, 101, 102, 103] {
                assert_eq!(list.get(&seen), Some(seen * 10), "after inserting {k}");
            }
        };
        let l2 = list.clone();
        let t = thread::spawn(move || insert_and_look(&l2, 1));
        insert_and_look(&list, 2);
        t.join().unwrap();

        let keys = [1u64, 2, 101, 102, 103];
        assert_eq!(list.len(), 5);
        assert!(list.iter().map(|(&k, v)| (k, v)).eq(keys.map(|k| (k, k * 10))));
        for probe in [0u64, 1, 2, 3, 100, 101, 102, 103, 104] {
            let at = keys.partition_point(|&k| k < probe);
            assert_eq!(list.get(&probe), keys.contains(&probe).then_some(probe * 10));
            assert!(list.range_from(&probe).map(|(&k, _)| k).eq(keys[at..].iter().copied()));
        }
    });
}

/// Two inserters cross a chunk boundary together.
///
/// Nodes are bump-allocated from chunks of the list's arena (256 bytes each
/// in the model build), and all inserting threads share one cursor, hence
/// one chunk and its bump word. The keys are 64 bytes wide, so a node is at
/// least 80 and a chunk holds three: the list is filled up front until the
/// chunk being filled has no room for another, and both inserters find it
/// full. One takes the next chunk under the arena's lock, the other finds
/// the cursor moved on and bumps the new chunk — or takes it first, on
/// another schedule. Either way each thread then looks up its own key, the
/// other thread's and the last one inserted up front, following links into
/// the chunk installed last, possibly by the other thread a moment ago: what
/// it finds carries its payload. Afterwards the list has grown by exactly
/// one chunk — none taken and lost — holding its header and the two nodes,
/// and dropping the list (at the end of every schedule) returns each chunk
/// once.
#[test]
fn two_inserters_cross_a_chunk_boundary_together() {
    type Wide = [u64; 8];
    const SMALLEST_NODE: usize = 64 + 8 + 8;
    let wide = |k: u64| -> Wide { [k, 0, 0, 0, 0, 0, 0, 0] };
    model(move || {
        let list = Arc::new(SkipList::new());
        // `room`: bytes left in the chunk being filled, known from the first
        // time a new one is taken — `reserved` steps by its size, `used` by
        // its header and the node that needed it. `chunk`: that step.
        let (mut room, mut chunk, mut last) = (usize::MAX, 0, 100);
        while room >= SMALLEST_NODE {
            let before = list.memory();
            last += 1;
            assert!(list.insert_with(wide(last), || last * 10).inserted());
            let (reserved, used) = list.memory();
            if reserved > before.0 {
                chunk = reserved - before.0;
                room = chunk - (used - before.1);
            } else if room != usize::MAX {
                room -= used - before.1;
            }
        }
        let before = list.memory();

        let insert_and_look = move |list: &SkipList<Wide>, k: u64, other: u64| {
            assert!(list.insert_with(wide(k), || k * 10).inserted());
            assert_eq!(list.get(&wide(k)), Some(k * 10));
            assert!(list.get(&wide(other)).is_none_or(|v| v == other * 10));
            assert_eq!(list.get(&wide(last)), Some(last * 10), "after inserting {k}");
        };
        let l2 = list.clone();
        let t = thread::spawn(move || insert_and_look(&l2, 1, 2));
        insert_and_look(&list, 2, 1);
        t.join().unwrap();

        let (reserved, used) = list.memory();
        assert_eq!(reserved, before.0 + chunk, "exactly one chunk was taken");
        let grown = used - before.1;
        assert!((8 + 2 * SMALLEST_NODE..=chunk).contains(&grown), "a header and two nodes");
        let keys: Vec<u64> = list.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, [1, 2].into_iter().chain(101..=last).collect::<Vec<_>>());
        assert_eq!(list.len(), keys.len() as u64);
    });
}
