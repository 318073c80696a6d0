//! Ad-hoc perf probe (run with --release -- --nocapture). Not asserted in CI.
#![cfg(feature = "enabled")]
use std::time::Instant;

#[test]
fn probe_bump_costs() {
    const N: u64 = 10_000_000;
    let start = Instant::now();
    for _ in 0..N {
        mvkv_obs::counter_inc!("mvkv_probe_inc_total");
    }
    println!("counter_inc!: {:.2} ns", start.elapsed().as_nanos() as f64 / N as f64);

    let start = Instant::now();
    for i in 0..N {
        mvkv_obs::counter_add!("mvkv_probe_add_total", i & 1);
    }
    println!("counter_add!: {:.2} ns", start.elapsed().as_nanos() as f64 / N as f64);

    let start = Instant::now();
    for _ in 0..N {
        mvkv_obs::span!("mvkv_probe_span_ns");
    }
    println!("span! (sampled): {:.2} ns", start.elapsed().as_nanos() as f64 / N as f64);
}
