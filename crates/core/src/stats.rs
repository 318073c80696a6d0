//! Operation counters for observability and benchmark sanity checks.
//!
//! Every native store carries an [`OpCounters`] block that its operations
//! bump on the hot path — `find` twice per hit. The block is the workspace's
//! one sharded counter, [`mvkv_sync::shard::Counters`]: each thread's eight
//! counters share one 64-byte line that only it writes, so a bump is a plain
//! load and a `Release` store, with no `lock` prefix and no line bouncing
//! between cores. [`crate::VersionedStore::op_stats`] sums the shards into a
//! snapshot that is consistent enough for dashboards, tests and the
//! benchmark harnesses' sanity assertions: the cross-counter invariants hold
//! in every snapshot (see [`OpCounters::snapshot`]).

use mvkv_sync::shard::Counters;
use serde::Serialize;

/// Counter indices: base counters first, then the counters derived from them
/// (bumped after their base by the same operation).
const INSERTS: usize = 0;
const REMOVES: usize = 1;
const FINDS: usize = 2;
const HISTORY_QUERIES: usize = 3;
const SNAPSHOT_EXTRACTIONS: usize = 4;
const FIND_HITS: usize = 5;
const NEW_KEYS: usize = 6;
const LOST_KEY_RACES: usize = 7;

/// Internal counter block (one per store, inline: one line per shard).
#[derive(Default)]
pub struct OpCounters(Counters<8>);

macro_rules! bump {
    ($($name:ident => $counter:ident),* $(,)?) => {
        $(
            #[inline]
            pub(crate) fn $name(&self) {
                self.0.add($counter, 1);
            }
        )*
    };
}

impl OpCounters {
    pub fn new() -> Self {
        Self::default()
    }

    bump! {
        insert => INSERTS,
        remove => REMOVES,
        find => FINDS,
        find_hit => FIND_HITS,
        history_query => HISTORY_QUERIES,
        snapshot_extraction => SNAPSHOT_EXTRACTIONS,
        new_key => NEW_KEYS,
        lost_key_race => LOST_KEY_RACES,
    }

    /// A point-in-time copy of all counters, summed over the shards.
    ///
    /// **Every derived counter of every shard is read before any base
    /// counter.** An operation bumps its base counter before the derived one
    /// (`find` bumps `finds` before `find_hits`; an insert/remove bumps its
    /// mutation counter before `new_keys`/`lost_key_races`), and both bumps
    /// land in the bumping thread's shard. Each bump is a `Release` write and
    /// [`Counters::sum`] loads with `Acquire`, so a load that observes `n`
    /// derived bumps in a shard also makes the `n` base bumps that preceded
    /// them visible, and the base load — sequenced after it — returns at
    /// least `n`. That holds shard by shard, hence for the sums: `find_hits
    /// <= finds` and `new_keys + lost_key_races <= mutations()` in every
    /// snapshot, even mid-update. (Reading shard by shard, base and derived together, would
    /// not do: nothing orders one shard's counters against another's, but the
    /// argument never needs that.)
    pub fn snapshot(&self) -> OpStats {
        let sum = |counter: usize| self.0.sum(counter);
        let lost_key_races = sum(LOST_KEY_RACES);
        let new_keys = sum(NEW_KEYS);
        let find_hits = sum(FIND_HITS);
        OpStats {
            inserts: sum(INSERTS),
            removes: sum(REMOVES),
            finds: sum(FINDS),
            find_hits,
            history_queries: sum(HISTORY_QUERIES),
            snapshot_extractions: sum(SNAPSHOT_EXTRACTIONS),
            new_keys,
            lost_key_races,
        }
    }
}

/// Exported operation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OpStats {
    pub inserts: u64,
    pub removes: u64,
    pub finds: u64,
    /// Finds that returned a value (vs absent/removed).
    pub find_hits: u64,
    pub history_queries: u64,
    pub snapshot_extractions: u64,
    /// Keys created (first insert/remove of a fresh key).
    pub new_keys: u64,
    /// Duplicate-key insert races lost (allocation reclaimed) — the
    /// paper's §IV-B cleanup path.
    pub lost_key_races: u64,
}

impl OpStats {
    /// Total mutations.
    pub fn mutations(&self) -> u64 {
        self.inserts + self.removes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn counters_accumulate() {
        let c = OpCounters::new();
        c.insert();
        c.insert();
        c.remove();
        c.find();
        c.find_hit();
        let s = c.snapshot();
        assert_eq!(s.inserts, 2);
        assert_eq!(s.removes, 1);
        assert_eq!(s.finds, 1);
        assert_eq!(s.find_hits, 1);
        assert_eq!(s.mutations(), 3);
    }

    /// The read-during-update snapshot race: writers bump `finds` then
    /// `find_hits` (and a mutation counter then `new_keys`); a snapshot that
    /// read a base counter before its derived one, or either with Relaxed,
    /// could observe a hit whose find was still missing — reporting
    /// `find_hits > finds`. Derived-before-base with Acquire/Release makes
    /// both invariants hold at all times.
    #[test]
    #[cfg_attr(miri, ignore = "slow under Miri; covered natively in CI")]
    fn snapshot_invariants_hold_mid_update() {
        let c = std::sync::Arc::new(OpCounters::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let violation = std::thread::scope(|scope| {
            for _ in 0..3 {
                let c = c.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // The orders real operations use.
                        c.find();
                        c.find_hit();
                        c.insert();
                        c.new_key();
                        c.remove();
                        c.lost_key_race();
                    }
                });
            }
            // Collected, not asserted in place: the writers only stop once
            // the flag is set, and the scope would wait for them forever.
            let violation = (0..200_000)
                .map(|_| c.snapshot())
                .find(|s| s.find_hits > s.finds || s.new_keys + s.lost_key_races > s.mutations());
            stop.store(true, Ordering::Relaxed);
            violation
        });
        assert_eq!(violation, None, "snapshot saw a derived counter ahead of its base");
    }
}
