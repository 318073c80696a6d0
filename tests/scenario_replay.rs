//! The eight `mvkv-workload::mix` scenarios (YCSB A–F analogues, hot-key
//! skew, churn) as *correctness* generators: every scenario's lane streams
//! run against `PSkipList` and `ESkipList`, and the final snapshot must equal
//! the reference model's replay of the lanes one after another
//! (`Model::of_plan`). All ops on one key share a lane, hence a thread, hence
//! an order — so the order lanes are replayed in cannot matter, and any op
//! the store loses, duplicates or reorders within a lane shows up as a
//! differing pair.
//!
//! At T = 1 the one thread runs exactly the order the model replays, so the
//! versions must agree too: each op's, every key's history, the store at
//! past versions and every tag label.

mod common;

use common::{assert_agrees, keys_of};
use mvkv::core::api::LabeledTags;
use mvkv::core::{ESkipList, Engine, Home, PSkipList, StoreSession, VersionedStore};
use mvkv::workload::{MixConfig, MixKind, MixOp, MixPlan, Model};

const MASTER_SEED: u64 = 0x5EED_2022;
const OPS: usize = 3000;

/// Runs `op` like `common::run`, plus the scan and the tag, which need an
/// `Engine`.
fn run_op<H>(store: &Engine<u64, H>, op: &MixOp) -> Option<u64>
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    match *op {
        MixOp::Scan { lo, len } => {
            let pairs: Vec<_> = store.scan(store.tag(), lo).take(len as usize).collect();
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0) && pairs.iter().all(|p| p.0 >= lo));
            None
        }
        MixOp::Tag { label } => Some(store.tag_labeled(label)),
        _ => common::run(store, &store.session(), op),
    }
}

fn replay<H>(store: Engine<u64, H>, plan: &MixPlan, model: &Model, threads: usize)
where
    H: Home<u64> + Send + Sync,
    Engine<u64, H>: LabeledTags,
{
    let row = format!("{} on {} at T={threads}", plan.name, store.name());
    store.session().insert_batch(&plan.load);
    store.wait_writes_complete();
    if threads == 1 {
        let mut step = Model::new();
        for &(key, value) in &plan.load {
            step.insert(key, value);
        }
        for op in plan.ops_for_thread(0, 1) {
            assert_eq!(run_op(&store, &op), step.apply(&op), "version of {op:?} in {row}");
        }
    } else {
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let store = &store;
                scope.spawn(move || {
                    for op in plan.ops_for_thread(tid, threads) {
                        run_op(store, &op);
                    }
                });
            }
        });
    }
    store.wait_writes_complete();
    let max = model.version();
    assert_eq!(store.tag(), max, "{row}");
    assert_eq!(store.session().extract_snapshot(max), model.snapshot(max), "{row}");
    if threads == 1 {
        let ops = plan.lanes.iter().flatten().map(MixOp::anchor);
        let keys = keys_of(plan.load.iter().map(|&(key, _)| key).chain(ops));
        assert_agrees(&store, model, &keys, &[0, plan.load.len() as u64, max / 2, max]);
        for (&label, &version) in model.labels() {
            assert_eq!(store.resolve_label(label), Some(version), "label {label} in {row}");
        }
    }
}

#[test]
fn every_scenario_replays_to_its_sequential_model_on_both_stores() {
    for kind in MixKind::all() {
        let config = MixConfig::canonical(kind, OPS, MASTER_SEED);
        let plan = config.generate();
        assert_eq!(plan.fingerprint(), config.generate().fingerprint(), "{}", plan.name);
        let model = Model::of_plan(&plan);
        // An RMW reads at `tag()`, which need not cover the thread's own last
        // write of the key while another thread's lower version is in flight;
        // its result is a function of the lane only when nothing else is.
        let rows: &[usize] = if kind == MixKind::YcsbF { &[1] } else { &[1, 4] };
        for &threads in rows {
            let pm = PSkipList::create_volatile(64 << 20).expect("volatile pool");
            replay(pm, &plan, &model, threads);
            replay(ESkipList::new(), &plan, &model, threads);
        }
    }
}
