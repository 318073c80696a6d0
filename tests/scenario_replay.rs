//! The eight `mvkv-workload::mix` scenarios (YCSB A–F analogues, hot-key
//! skew, churn) as *correctness* generators: every scenario's lane streams
//! run on real threads against `PSkipList` and `ESkipList`, and the final
//! snapshot must equal a `BTreeMap` built by replaying the lanes one after
//! another. All ops on one key share a lane, hence a thread, hence an order —
//! so the order lanes are replayed in cannot matter, and any op the store
//! loses, duplicates or reorders within a lane shows up as a differing pair.

use mvkv::core::api::LabeledTags;
use mvkv::core::{ESkipList, Engine, Home, PSkipList, StoreSession, VersionedStore};
use mvkv::workload::scenario::VALUE_BOUND;
use mvkv::workload::{MixConfig, MixKind, MixOp, MixPlan};
use std::collections::BTreeMap;
use std::hint::black_box;

const MASTER_SEED: u64 = 0x5EED_2022;
const OPS: usize = 3000;

/// What an RMW writes over `old`: stays inside the generator's value domain
/// (and away from the tombstone sentinel) when the counter overflows it.
fn rmw_value(old: Option<u64>, delta: u64) -> u64 {
    old.unwrap_or(0).wrapping_add(delta) & (VALUE_BOUND - 1)
}

fn run_op<H>(store: &Engine<u64, H>, op: MixOp)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let session = store.session();
    match op {
        MixOp::Read { key } => {
            black_box(session.find(key, store.tag()));
        }
        MixOp::Insert { key, value } | MixOp::Update { key, value } => {
            session.insert(key, value);
        }
        MixOp::Scan { lo, len } => {
            let pairs: Vec<_> = store.scan(store.tag(), lo).take(len as usize).collect();
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0) && pairs.iter().all(|p| p.0 >= lo));
        }
        MixOp::Rmw { key, delta } => {
            session.insert(key, rmw_value(session.find(key, store.tag()), delta));
        }
        MixOp::Remove { key } => {
            session.remove(key);
        }
        MixOp::Tag { label } => {
            store.tag_labeled(label);
        }
    }
}

fn model_of(plan: &MixPlan) -> Vec<(u64, u64)> {
    let mut model: BTreeMap<u64, u64> = plan.load.iter().copied().collect();
    for op in plan.lanes.iter().flatten() {
        match *op {
            MixOp::Insert { key, value } | MixOp::Update { key, value } => {
                model.insert(key, value);
            }
            MixOp::Rmw { key, delta } => {
                let value = rmw_value(model.get(&key).copied(), delta);
                model.insert(key, value);
            }
            MixOp::Remove { key } => {
                model.remove(&key);
            }
            MixOp::Read { .. } | MixOp::Scan { .. } | MixOp::Tag { .. } => {}
        }
    }
    model.into_iter().collect()
}

fn replay<H>(store: Engine<u64, H>, plan: &MixPlan, model: &[(u64, u64)], threads: usize)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    store.session().insert_batch(&plan.load);
    store.wait_writes_complete();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let store = &store;
            scope.spawn(move || {
                for op in plan.ops_for_thread(tid, threads) {
                    run_op(store, op);
                }
            });
        }
    });
    store.wait_writes_complete();
    assert_eq!(
        store.session().extract_snapshot(store.tag()),
        model,
        "{} on {} at T={threads}",
        plan.name,
        store.name()
    );
}

#[test]
fn every_scenario_replays_to_its_sequential_model_on_both_stores() {
    for kind in MixKind::all() {
        let config = MixConfig::canonical(kind, OPS, MASTER_SEED);
        let plan = config.generate();
        assert_eq!(plan.fingerprint(), config.generate().fingerprint(), "{}", plan.name);
        let model = model_of(&plan);
        // An RMW reads at `tag()`, which need not cover the thread's own last
        // write of the key while another thread's lower version is in flight;
        // its result is a function of the lane only when nothing else is.
        let threads = if kind == MixKind::YcsbF { 1 } else { 4 };
        let pm = PSkipList::create_volatile(64 << 20).expect("volatile pool");
        replay(pm, &plan, &model, threads);
        replay(ESkipList::new(), &plan, &model, threads);
    }
}
