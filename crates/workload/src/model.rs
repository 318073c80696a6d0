//! The reference model every correctness harness checks a store against.
//!
//! It is the paper's Table 1 contract with one writer: the `n`-th write gets
//! version `n`, `find(k, v)` and `snapshot(v)` answer as of any `v`, and
//! `tag(label)` names the current version. Each key keeps its whole history
//! as `(version, value | removal)` pairs, so a query at a past version needs
//! no per-version copy of the map.

use crate::mix::{MixOp, MixPlan};
use crate::scenario::VALUE_BOUND;
use std::collections::BTreeMap;
use std::ops::RangeBounds;

/// What an RMW writes over `old`: stays inside the generator's value domain
/// (and away from the tombstone sentinel) when the counter overflows it.
pub fn rmw_value(old: Option<u64>, delta: u64) -> u64 {
    old.unwrap_or(0).wrapping_add(delta) & (VALUE_BOUND - 1)
}

/// A sequential multi-version store: per-key histories, a version counter
/// and the labels tags bound.
#[derive(Debug, Clone, Default)]
pub struct Model {
    histories: BTreeMap<u64, Vec<(u64, Option<u64>)>>,
    version: u64,
    labels: BTreeMap<u64, u64>,
}

impl Model {
    pub fn new() -> Model {
        Model::default()
    }

    /// `plan` replayed on one thread: its load, one insert a pair, then its
    /// lanes in the order `plan.ops_for_thread(0, 1)` runs them.
    pub fn of_plan(plan: &MixPlan) -> Model {
        let mut model = Model::new();
        for &(key, value) in &plan.load {
            model.insert(key, value);
        }
        for op in plan.lanes.iter().flatten() {
            model.apply(op);
        }
        model
    }

    /// Applies `op` and returns the version a write gets or a tag names; a
    /// read or a scan changes nothing and returns `None`. An RMW reads the
    /// newest version.
    pub fn apply(&mut self, op: &MixOp) -> Option<u64> {
        Some(match *op {
            MixOp::Insert { key, value } | MixOp::Update { key, value } => self.insert(key, value),
            MixOp::Rmw { key, delta } => {
                self.insert(key, rmw_value(self.find(key, self.version), delta))
            }
            MixOp::Remove { key } => self.remove(key),
            MixOp::Tag { label } => self.tag(label),
            MixOp::Read { .. } | MixOp::Scan { .. } => return None,
        })
    }

    pub fn insert(&mut self, key: u64, value: u64) -> u64 {
        self.write(key, Some(value))
    }

    pub fn remove(&mut self, key: u64) -> u64 {
        self.write(key, None)
    }

    fn write(&mut self, key: u64, value: Option<u64>) -> u64 {
        self.version += 1;
        self.histories.entry(key).or_default().push((self.version, value));
        self.version
    }

    /// Binds `label` to the current version (a later tag of the same label
    /// wins) and returns that version.
    pub fn tag(&mut self, label: u64) -> u64 {
        self.labels.insert(label, self.version);
        self.version
    }

    /// Every label with the version it names.
    pub fn labels(&self) -> &BTreeMap<u64, u64> {
        &self.labels
    }

    /// The newest version: the number of writes so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `key`'s value as of `version`.
    pub fn find(&self, key: u64, version: u64) -> Option<u64> {
        let history = self.histories.get(&key)?;
        let at = history.partition_point(|&(v, _)| v <= version);
        history[..at].last()?.1
    }

    /// Every write of `key`, oldest first.
    pub fn history(&self, key: u64) -> &[(u64, Option<u64>)] {
        self.histories.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The live pairs with a key in `keys` as of `version`, in key order.
    pub fn range(&self, version: u64, keys: impl RangeBounds<u64>) -> Vec<(u64, u64)> {
        self.histories.range(keys).filter_map(|(&k, _)| Some((k, self.find(k, version)?))).collect()
    }

    /// Every live pair as of `version`, in key order.
    pub fn snapshot(&self, version: u64) -> Vec<(u64, u64)> {
        self.range(version, ..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{MixConfig, MixKind};

    #[test]
    fn queries_answer_as_of_any_version() {
        let mut m = Model::new();
        assert_eq!((m.insert(10, 100), m.insert(20, 200), m.remove(10)), (1, 2, 3));
        assert_eq!(m.tag(7), 3);
        assert_eq!(m.insert(10, 101), 4);
        assert_eq!([m.find(10, 0), m.find(10, 2), m.find(10, 3)], [None, Some(100), None]);
        assert_eq!(m.find(10, 99), Some(101));
        assert_eq!(m.snapshot(2), [(10, 100), (20, 200)]);
        assert_eq!(m.snapshot(3), [(20, 200)]);
        assert_eq!(m.range(4, 15..), [(20, 200)]);
        assert_eq!(m.history(10), [(1, Some(100)), (3, None), (4, Some(101))]);
        assert!(m.history(30).is_empty());
        assert_eq!(m.labels().get(&7), Some(&3));
        assert_eq!(m.version(), 4);
    }

    #[test]
    fn apply_versions_writes_and_tags_and_nothing_else() {
        let mut m = Model::new();
        assert_eq!(m.apply(&MixOp::Insert { key: 1, value: 5 }), Some(1));
        assert_eq!(m.apply(&MixOp::Rmw { key: 1, delta: 3 }), Some(2));
        assert_eq!(m.find(1, 2), Some(8));
        assert_eq!(m.apply(&MixOp::Rmw { key: 2, delta: VALUE_BOUND + 1 }), Some(3));
        assert_eq!(m.find(2, 3), Some(1), "an RMW wraps inside the value domain");
        assert_eq!(m.apply(&MixOp::Read { key: 1 }), None);
        assert_eq!(m.apply(&MixOp::Scan { lo: 0, len: 9 }), None);
        assert_eq!(m.apply(&MixOp::Tag { label: 4 }), Some(3));
        assert_eq!(m.version(), 3);
    }

    #[test]
    fn a_plan_replays_its_load_then_its_lanes() {
        let plan = MixConfig::canonical(MixKind::Churn, 400, 9).generate();
        let m = Model::of_plan(&plan);
        let writes = plan.lanes.iter().flatten().filter(|op| {
            !matches!(op, MixOp::Read { .. } | MixOp::Scan { .. } | MixOp::Tag { .. })
        });
        assert_eq!(m.version(), (plan.load.len() + writes.count()) as u64);
        let (key, value) = plan.load[0];
        assert_eq!(m.find(key, 1), Some(value));
        assert!(!m.labels().is_empty());
    }
}
