//! The model every result is checked against: each key's full history,
//! rebuilt from the plan alone.
//!
//! With one client thread the i-th write receives version i, so the model
//! numbers writes as it replays them. With two client threads the versions
//! inside the racing phase depend on the interleaving, but all operations on
//! one key sit on one thread in generation order, so each key's *sequence* of
//! values is still determined; queries are generated only at versions before
//! or after that phase ([`crate::plan::Plan::fuzzy`]), where the numbering
//! used here and the store's agree.

use crate::plan::{Op, Plan};
use mvkv_core::{Pair, TOMBSTONE};
use std::collections::HashMap;

#[derive(Default)]
pub struct Model {
    /// key → `(version, value or TOMBSTONE)`, ascending by version.
    history: HashMap<u64, Vec<(u64, u64)>>,
    /// Keys in order, for scans and snapshots; rebuilt by [`Model::seal`].
    sorted: Vec<u64>,
    version: u64,
    fuzzy: (u64, u64),
}

impl Model {
    /// Replays everything one cycle writes: preload, main, write probe,
    /// batch probe.
    pub fn of_cycle(plan: &Plan) -> Model {
        let mut m = Model { fuzzy: plan.fuzzy, ..Model::default() };
        let writes = plan
            .preload
            .iter()
            .chain(plan.main.iter().flatten())
            .chain(plan.write_probe.iter())
            .filter(|op| op.is_write());
        for op in writes {
            m.apply(op);
        }
        for &(key, value) in &plan.batch_probe {
            m.apply(&Op::Put { key, value });
        }
        m.seal();
        m
    }

    /// Replays exactly `writes`, in order (the crash-simulation replay).
    pub fn of_writes<'a>(writes: impl Iterator<Item = &'a Op>) -> Model {
        let mut m = Model::default();
        for op in writes {
            m.apply(op);
        }
        m.seal();
        m
    }

    fn apply(&mut self, op: &Op) {
        self.version += 1;
        let (key, value) = match *op {
            Op::Put { key, value } => (key, value),
            Op::Remove { key } => (key, TOMBSTONE),
            Op::Find { .. } | Op::Latest { .. } => unreachable!("reads do not change the model"),
        };
        self.history.entry(key).or_default().push((self.version, value));
    }

    fn seal(&mut self) {
        self.sorted = self.history.keys().copied().collect();
        self.sorted.sort_unstable();
    }

    /// Version of the last write replayed (what `tag()` must return once all
    /// writes completed).
    pub fn latest(&self) -> u64 {
        self.version
    }

    pub fn key_count(&self) -> u64 {
        self.history.len() as u64
    }

    pub fn find(&self, key: u64, version: u64) -> Option<u64> {
        assert!(
            !(self.fuzzy.0 < version && version < self.fuzzy.1),
            "query at version {version} inside the racing range {:?}",
            self.fuzzy
        );
        let h = self.history.get(&key)?;
        let visible = h.partition_point(|&(v, _)| v <= version);
        match h[..visible].last() {
            None | Some(&(_, TOMBSTONE)) => None,
            Some(&(_, value)) => Some(value),
        }
    }

    /// Expected result of `scan(version, lo).take(len)`.
    pub fn scan(&self, version: u64, lo: u64, len: usize) -> Vec<Pair> {
        let start = self.sorted.partition_point(|&k| k < lo);
        self.sorted[start..]
            .iter()
            .filter_map(|&k| self.find(k, version).map(|v| (k, v)))
            .take(len)
            .collect()
    }

    /// Expected result of `extract_snapshot(version)`.
    pub fn snapshot(&self, version: u64) -> Vec<Pair> {
        self.scan(version, 0, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(ops: &[Op]) -> Model {
        Model::of_writes(ops.iter())
    }

    #[test]
    fn versions_tombstones_and_order() {
        let m = model(&[
            Op::Put { key: 30, value: 3 },
            Op::Put { key: 10, value: 1 },
            Op::Remove { key: 30 },
            Op::Put { key: 10, value: 11 },
            Op::Put { key: 20, value: 2 },
        ]);
        assert_eq!(m.latest(), 5);
        assert_eq!(m.key_count(), 3);
        assert_eq!(m.find(30, 1), Some(3));
        assert_eq!(m.find(30, 3), None);
        assert_eq!(m.find(10, 1), None);
        assert_eq!(m.find(10, 3), Some(1));
        assert_eq!(m.find(10, u64::MAX), Some(11));
        assert_eq!(m.snapshot(2), vec![(10, 1), (30, 3)]);
        assert_eq!(m.snapshot(5), vec![(10, 11), (20, 2)]);
        assert_eq!(m.scan(5, 11, 5), vec![(20, 2)]);
        assert_eq!(m.scan(5, 0, 1), vec![(10, 11)]);
    }

    #[test]
    #[should_panic(expected = "racing range")]
    fn queries_inside_the_racing_range_are_a_harness_bug() {
        let mut m = model(&[Op::Put { key: 1, value: 1 }]);
        m.fuzzy = (0, 10);
        m.find(1, 5);
    }
}
