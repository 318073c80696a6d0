//! Bounded model checking of the version clock's range reservations.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p mvkv-vhistory --release --test loom_clock`
//!
//! A window of 4 cells, one thread reserving and completing a 3-version
//! range while another issues and completes two single versions. Every
//! caller holds at most one reservation and completes it before it reserves
//! again, so whoever waits in `issue_range` holds nothing and the wait ends.
//! Issued one version at a time, the same range deadlocks at this window:
//! with two of its versions held and the other thread's two taken, its third
//! would wait for a watermark that only its own first version can move.

#![cfg(loom)]

use mvkv_sync::sync::Arc;
use mvkv_sync::{model, thread};
use mvkv_vhistory::VersionClock;

#[test]
fn a_range_and_two_singles_are_gapless_at_window_4() {
    model(|| {
        let clock = Arc::new(VersionClock::with_window(4));
        let c2 = clock.clone();
        let singles = thread::spawn(move || {
            let a = c2.issue();
            c2.complete(a);
            let b = c2.issue();
            c2.complete(b);
            [a, b]
        });
        let first = clock.issue_range(3);
        assert!(clock.watermark() < first, "the watermark passed an incomplete version");
        clock.complete_range(first, 3);
        let [a, b] = singles.join().unwrap();
        let mut versions = vec![first, first + 1, first + 2, a, b];
        versions.sort_unstable();
        assert_eq!(versions, [1, 2, 3, 4, 5], "versions are unique and gapless");
        assert_eq!(clock.watermark(), 5);
        assert_eq!(clock.issued(), 5);
    });
}
