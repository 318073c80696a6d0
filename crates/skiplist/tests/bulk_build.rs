//! A bulk-built list is the list the same pairs make inserted one by one:
//! for one fragment and for 2 / 3 / 8 stitched ones, some of them empty. Its
//! shape is set by rank alone: a perfect 4-ary skip list per fragment.

use mvkv_skiplist::{InsertOutcome, SkipList, MAX_HEIGHT};
use proptest::prelude::*;

/// `pairs` bulk-built as `cuts.len() + 1` fragments: fragment `i` holds the
/// pairs from index `cuts[i - 1]` up to `cuts[i]` (equal cuts = empty). Each
/// pair with an odd payload is followed by a key not greater than its own,
/// which the fragment refuses. Also returns every fragment's length.
fn bulk(pairs: &[(u64, u64)], cuts: &[usize]) -> (SkipList<u64>, Vec<u64>) {
    let mut list = SkipList::new();
    let mut bounds = vec![0];
    bounds.extend(cuts.iter().map(|&c| c.min(pairs.len())));
    bounds.push(pairs.len());
    bounds.sort_unstable();
    let with_refused =
        |&(k, v): &(u64, u64)| std::iter::once((k, v)).chain((v % 2 == 1).then_some((k / 2, !v)));
    let fragments: Vec<_> = bounds
        .windows(2)
        .map(|w| list.fragment(pairs[w[0]..w[1]].iter().flat_map(with_refused)))
        .collect();
    let refused = pairs.iter().filter(|&&(_, v)| v % 2 == 1).count() as u64;
    assert_eq!(fragments.iter().map(|f| f.dropped()).sum::<u64>(), refused);
    let lens = fragments.iter().map(|f| f.len()).collect();
    list.adopt(fragments);
    (list, lens)
}

/// Nodes per level of fragments of `lens` keys stitched together: level `L`
/// links every fragment's ranks that are multiples of `4^L`, up to the
/// highest level any node reaches (level 0 at least).
fn positional_levels(lens: &[u64]) -> Vec<u64> {
    let mut levels: Vec<u64> =
        (0..MAX_HEIGHT).map(|at| lens.iter().map(|len| len >> (2 * at)).sum()).collect();
    while levels.len() > 1 && levels.last() == Some(&0) {
        levels.pop();
    }
    levels
}

proptest! {
    // A few cases are enough for Miri's question (are the arena's pointers
    // in bounds and its keys dropped); the rest would take it an hour.
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 3 } else { 48 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn bulk_built_list_equals_the_inserted_one(
        raw in proptest::collection::vec((0u64..600, 0u64..(1 << 40)), 0..300),
        cuts in proptest::collection::vec(0usize..320, 7..8),
        probes in proptest::collection::vec(0u64..640, 40..41),
    ) {
        // Strictly increasing keys, the first payload of equal keys kept
        // (the sort is stable).
        let mut pairs = raw.clone();
        pairs.sort_by_key(|&(k, _)| k);
        pairs.dedup_by_key(|&mut (k, _)| k);

        for fragments in [1usize, 2, 3, 8] {
            // One by one, in the scattered order the pairs were drawn in
            // (`insert_with` keeps the first payload of equal keys too).
            let inserted = SkipList::new();
            for &(k, v) in &raw {
                inserted.insert_with(k, || v);
            }
            let (built, lens) = bulk(&pairs, &cuts[..fragments - 1]);
            prop_assert_eq!(built.levels(), positional_levels(&lens));
            prop_assert_eq!(built.len(), inserted.len());
            prop_assert_eq!(built.len() as usize, pairs.len());
            prop_assert_eq!(built.is_empty(), pairs.is_empty());
            let walked: Vec<(u64, u64)> = built.iter().map(|(&k, v)| (k, v)).collect();
            prop_assert_eq!(&walked, &pairs);
            prop_assert!(inserted.iter().map(|(&k, v)| (k, v)).eq(walked.iter().copied()));
            for &(k, v) in &pairs {
                prop_assert_eq!(built.get(&k), Some(v));
            }
            for &probe in &probes {
                prop_assert_eq!(built.get(&probe), inserted.get(&probe));
                let from = pairs.partition_point(|&(k, _)| k < probe);
                let seek = built.range_from(&probe).map(|(&k, v)| (k, v));
                prop_assert!(seek.eq(pairs[from..].iter().copied()));
            }
            // The bulk-built list takes inserts like any other: present keys
            // lose to the payload already there, absent ones are linked.
            for &probe in &probes {
                let a = built.insert_with(probe, || probe + 1);
                prop_assert_eq!(a, inserted.insert_with(probe, || probe + 1));
                if pairs.binary_search_by_key(&probe, |&(k, _)| k).is_ok() {
                    prop_assert!(matches!(a, InsertOutcome::Lost { yours: None, .. }));
                }
            }
            prop_assert_eq!(built.len(), inserted.len());
            prop_assert!(built.iter().eq(inserted.iter()));
        }
    }
}
