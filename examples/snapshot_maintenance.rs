//! Long-running store maintenance: labeled tags, O(changes) delta
//! extraction, and horizon compaction.
//!
//! A telemetry service ingests rolling measurements around the clock. It
//! tags a label at every hour boundary, ships incremental changes
//! downstream with `extract_delta` (backed by the persistent changelog),
//! and periodically compacts everything older than the retention horizon —
//! the garbage-collection mechanism the paper leaves as future work
//! (§IV-B).
//!
//! Run with: `cargo run --release --example snapshot_maintenance`

use mvkv::core::{
    DeltaExtract, LabeledTags, PSkipList, StoreOptions, StoreSession, VersionedStore,
};
use mvkv::pmem::PmemPool;

const SENSORS: u64 = 500;
const HOURS: u64 = 6;

fn reading(sensor: u64, hour: u64) -> u64 {
    (sensor * 31 + hour * 7919) % 10_000
}

fn main() -> std::io::Result<()> {
    let store = PSkipList::create(
        PmemPool::create_volatile(256 << 20)?,
        StoreOptions { changelog: true, ..Default::default() },
    )?;
    let session = store.session();

    // Ingest: every hour, a quarter of the sensors report; a few retire.
    for hour in 0..HOURS {
        for sensor in 0..SENSORS {
            let retired = hour > 3 && sensor % 40 == 0 && sensor < 400;
            if (sensor + hour) % 4 == 0 && !retired {
                session.insert(sensor, reading(sensor, hour));
            }
        }
        if hour == 3 {
            for dead in 0..10u64 {
                session.remove(dead * 40);
            }
        }
        let v = store.tag_labeled(hour);
        println!("hour {hour}: tagged v{v}");
    }

    // Downstream sync: ship only what changed between two labeled hours.
    let h2 = store.resolve_label(2).expect("hour 2 tagged");
    let h3 = store.resolve_label(3).expect("hour 3 tagged");
    let delta = store.extract_delta(h2, h3);
    println!("hour 2 → hour 3: {} changed keys (of {})", delta.len(), store.key_count());
    let removed = delta.iter().filter(|(_, state)| state.is_none()).count();
    assert_eq!(removed, 10, "the retirements show up as removals");

    // Retention: collapse everything before hour 4, dropping dead sensors.
    let horizon = store.resolve_label(4).expect("hour 4 tagged");
    let fresh = PmemPool::create_volatile(256 << 20)?;
    let (compacted, stats) = store.compact_into(fresh, horizon)?;
    println!(
        "compaction @v{horizon}: kept {} keys (+{} GC'd), {} → {} history entries",
        stats.keys_kept, stats.keys_dropped, stats.entries_before, stats.entries_after
    );
    assert!(stats.entries_after < stats.entries_before);

    // Post-horizon snapshots are bit-identical in the compacted store…
    let latest = store.tag();
    assert_eq!(
        compacted.session().extract_snapshot(latest),
        session.extract_snapshot(latest)
    );
    // …labels still resolve…
    assert_eq!(compacted.resolve_label(5), store.resolve_label(5));
    // …pre-horizon queries answer as of the horizon…
    let old = store.resolve_label(0).unwrap();
    assert_eq!(
        compacted.session().extract_snapshot(old),
        session.extract_snapshot(horizon)
    );
    // …and post-horizon deltas still come from the (compacted) changelog.
    assert_eq!(
        compacted.extract_delta(horizon, latest),
        store.extract_delta(horizon, latest)
    );

    // Range queries serve per-shard readers without a full scan.
    let shard = compacted.session().extract_range(latest, 100, 200);
    assert!(shard.iter().all(|&(k, _)| (100..200).contains(&k)));
    println!("shard [100, 200): {} live sensors", shard.len());

    println!("snapshot_maintenance OK");
    Ok(())
}
