//! Distributed-layer integration: the virtual-time cluster must agree with
//! a single-node reference model.

mod common;

use common::random_script;
use mvkv::cluster::{DistStore, MergeStrategy, NetModel};
use mvkv::core::{ESkipList, PSkipList, StoreSession, VersionedStore};
use mvkv::workload::{MixOp, Model};

/// Splits a script across K ranks by key ownership (`key % K`), applying
/// each rank's ops locally, and applies everything to one model.
fn build_partitioned(k: usize, script: &[MixOp]) -> (DistStore<ESkipList>, Model) {
    build_partitioned_on(k, script, NetModel::theta_like())
}

fn build_partitioned_on(
    k: usize,
    script: &[MixOp],
    net: NetModel,
) -> (DistStore<ESkipList>, Model) {
    let mut model = Model::new();
    let ranks: Vec<ESkipList> = (0..k).map(|_| ESkipList::new()).collect();
    for op in script {
        let owner = &ranks[(op.anchor() % k as u64) as usize];
        common::run(owner, &owner.session(), op);
        model.apply(op);
    }
    for r in &ranks {
        r.wait_writes_complete();
    }
    (DistStore::new(ranks, net), model)
}

#[test]
fn distributed_find_agrees_with_oracle_at_latest() {
    let script = random_script(1200, 97, 0xD1);
    let (mut cluster, model) = build_partitioned(5, &script);
    // Per-rank version counters differ from the model's global one, so
    // compare at "latest" where they coincide.
    for key in 0..97u64 {
        let (got, _) = cluster.find(key, u64::MAX);
        assert_eq!(got, model.find(key, u64::MAX), "key {key}");
    }
}

#[test]
fn distributed_merged_snapshot_equals_oracle() {
    let script = random_script(900, 150, 0xD2);
    // K = 200 over 150 keys: at least 50 ranks are empty, and recursive
    // doubling runs over a K that is not a power of two.
    for k in [1usize, 3, 8, 200] {
        let (mut cluster, model) = build_partitioned(k, &script);
        let want = model.snapshot(u64::MAX);
        let (naive, _) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Naive);
        assert_eq!(naive, want, "naive K={k}");
        let (opt, _) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Opt { threads: 3 });
        assert_eq!(opt, want, "opt K={k}");
    }
}

/// Minimum virtual time over several repetitions of one merge strategy.
fn best_merge_time(c: &mut DistStore<ESkipList>, strategy: MergeStrategy) -> std::time::Duration {
    (0..7)
        .map(|_| {
            c.reset_clocks();
            c.extract_snapshot(u64::MAX, strategy).1
        })
        .min()
        .expect("at least one rep")
}

#[test]
fn virtual_time_merge_shape_naive_vs_opt() {
    // The performance *shape* the paper reports: at larger K the optimized
    // merge must beat the naive gather-then-kway by a growing factor.
    // Virtual time adds measured local compute to the network model, so a
    // 1 ms latency keeps a preempted merge from deciding the comparison:
    // the naive merge waits ⌈log2 K⌉ + K − 1 latencies (bcast, then a
    // linear gather), the optimized one 2⌈log2 K⌉ — 2 : 2 at K = 2,
    // 19 : 8 at K = 16 — against well under a millisecond of compute.
    let slow = NetModel { latency: std::time::Duration::from_millis(1), bandwidth: 8.0e9 };
    let script: Vec<MixOp> = (0..4000u64).map(|key| MixOp::Insert { key, value: key }).collect();
    let (mut c_small, _) = build_partitioned_on(2, &script, slow);
    let (mut c_large, _) = build_partitioned_on(16, &script, slow);
    let naive_small = best_merge_time(&mut c_small, MergeStrategy::Naive);
    let opt_small = best_merge_time(&mut c_small, MergeStrategy::Opt { threads: 2 });
    let naive_large = best_merge_time(&mut c_large, MergeStrategy::Naive);
    let opt_large = best_merge_time(&mut c_large, MergeStrategy::Opt { threads: 2 });
    let ratio_small = naive_small.as_secs_f64() / opt_small.as_secs_f64();
    let ratio_large = naive_large.as_secs_f64() / opt_large.as_secs_f64();
    assert!(
        ratio_large > ratio_small,
        "opt advantage must grow with K: {ratio_small:.2} vs {ratio_large:.2}"
    );
}

#[test]
fn pskiplist_ranks_work_distributed_too() {
    let ranks: Vec<PSkipList> = (0..3)
        .map(|r| {
            let store = PSkipList::create_volatile(16 << 20).unwrap();
            let s = store.session();
            for i in 0..100u64 {
                s.insert(i * 3 + r, i);
            }
            store.wait_writes_complete();
            store
        })
        .collect();
    let mut cluster = DistStore::new(ranks, NetModel::theta_like());
    let (snap, _) = cluster.extract_snapshot(u64::MAX, MergeStrategy::Opt { threads: 2 });
    assert_eq!(snap.len(), 300);
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    let (hit, _) = cluster.find(5, u64::MAX);
    assert!(hit.is_some());
}
