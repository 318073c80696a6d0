//! The five workloads as data: every operation a run will issue, generated
//! from the seed before anything is timed.
//!
//! A [`Plan`] is a store state (`preload`), the workload's own closed-loop
//! stream (`main`, one vector per client thread) and the probe streams that
//! measure every other public operation against that same state. The store
//! only ever receives these generated operations, never the seed.

use mvkv_workload::mix::key_of;
use mvkv_workload::scenario::VALUE_BOUND;
use mvkv_workload::{
    derive_seed, stream_fingerprint, MixConfig, MixKind, MixOp, Mt19937_64, Scenario, Zipfian,
};
use std::collections::HashSet;

pub const DEFAULT_SEED: u64 = 0x5EED_2022;

/// Workload names, in reporting order. `BENCHMARK.json` lists the same five.
pub const WORKLOADS: [&str; 5] =
    ["read_large", "read_deep", "write_fresh", "mixed_a", "snapshot_restart"];

/// Pairs per `insert_batch` call.
pub const BATCH_PAIRS: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `find(key, version)` at a fixed snapshot.
    Find { key: u64, version: u64 },
    /// `find(key, tag())`: the newest consistent snapshot at call time.
    Latest { key: u64 },
    /// `insert(key, value)`: a fresh key or an update, as the state decides.
    Put { key: u64, value: u64 },
    /// `remove(key)`.
    Remove { key: u64 },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put { .. } | Op::Remove { .. })
    }

    fn words(&self) -> [u64; 3] {
        match *self {
            Op::Find { key, version } => [1, key, version],
            Op::Latest { key } => [2, key, 0],
            Op::Put { key, value } => [3, key, value],
            Op::Remove { key } => [4, key, 0],
        }
    }
}

pub struct Plan {
    pub workload: &'static str,
    /// Client threads of the closed loop.
    pub threads: usize,
    /// Writes that build the store state, issued by one thread in order.
    pub preload: Vec<Op>,
    /// The workload's own stream, one vector per client thread. A stream
    /// with writes is run once per cycle (first half for throughput, second
    /// half for latency); a read-only stream is cycled for a share of the
    /// time budget.
    pub main: Vec<Vec<Op>>,
    /// `Find` ops; run only when `main` holds no finds.
    pub find_probe: Vec<Op>,
    /// `Put` ops on fresh keys; run only when `main` holds no writes.
    pub write_probe: Vec<Op>,
    /// Fresh pairs for `insert_batch`, issued [`BATCH_PAIRS`] per call.
    pub batch_probe: Vec<(u64, u64)>,
    /// YCSB-E shaped `scan(scan_version, lo).take(len)` calls.
    pub scans: Vec<(u64, u32)>,
    pub scan_version: u64,
    /// One `extract_snapshot` per entry.
    pub extract_versions: Vec<u64>,
    /// Versions in `(fuzzy.0, fuzzy.1)` were numbered by racing client
    /// threads, so no generated query may name one (see `oracle`).
    pub fuzzy: (u64, u64),
    pub pool_bytes: usize,
}

impl Plan {
    pub fn main_writes(&self) -> usize {
        writes_in(&self.main)
    }

    /// The writes that characterise the workload, and the writes they build
    /// on: the writes of `main` on top of the whole preload, or the preload
    /// on top of nothing when `main` only reads. The count metrics and the
    /// per-layer attribution are taken over these, replayed by one thread.
    pub fn characteristic_writes(&self) -> (Vec<Op>, Vec<Op>) {
        let main: Vec<Op> =
            self.main.iter().flatten().filter(|op| op.is_write()).copied().collect();
        if main.is_empty() {
            (Vec::new(), self.preload.clone())
        } else {
            (self.preload.clone(), main)
        }
    }

    /// The point reads the workload is measured with: those of `main`, else
    /// the probe.
    pub fn reads(&self) -> impl Iterator<Item = &Op> {
        self.main.iter().flatten().filter(|op| !op.is_write()).chain(&self.find_probe)
    }

    /// Version of the last write of `preload`.
    pub fn v_pre(&self) -> u64 {
        self.preload.len() as u64
    }

    /// Version of the last write of `main`.
    pub fn v_main(&self) -> u64 {
        self.v_pre() + self.main_writes() as u64
    }

    /// Order-sensitive digest of every stream. `fingerprints.lock` pins it
    /// for the default seed, so an edit to the generators in
    /// `crates/workload` (outside this package) cannot silently change the
    /// load.
    pub fn fingerprint(&self) -> u64 {
        fn ops(tag: u64, ops: &[Op]) -> impl Iterator<Item = u64> + '_ {
            [tag, ops.len() as u64].into_iter().chain(ops.iter().flat_map(|op| op.words()))
        }
        let main = self.main.iter().enumerate().flat_map(|(t, lane)| ops(100 + t as u64, lane));
        let words = ops(1, &self.preload)
            .chain(main)
            .chain(ops(2, &self.find_probe))
            .chain(ops(3, &self.write_probe))
            .chain([4, self.batch_probe.len() as u64])
            .chain(self.batch_probe.iter().flat_map(|&(k, v)| [k, v]))
            .chain([5, self.scans.len() as u64, self.scan_version])
            .chain(self.scans.iter().flat_map(|&(lo, len)| [lo, len as u64]))
            .chain([6, self.extract_versions.len() as u64])
            .chain(self.extract_versions.iter().copied());
        stream_fingerprint(words)
    }
}

fn writes_in(main: &[Vec<Op>]) -> usize {
    main.iter().flatten().filter(|op| op.is_write()).count()
}

/// Full size, or about a hundredth of it for `--smoke` and the self-tests.
fn sized(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 128).max(64)
    } else {
        full
    }
}

/// Generates the plan of `workload`, or `None` for an unknown name.
pub fn generate(workload: &str, seed: u64, smoke: bool) -> Option<Plan> {
    Some(match workload {
        "read_large" => read_large(seed, smoke),
        "read_deep" => read_deep(seed, smoke),
        "write_fresh" => write_fresh(seed, smoke),
        "mixed_a" => mixed_a(seed, smoke),
        "snapshot_restart" => snapshot_restart(seed, smoke),
        _ => return None,
    })
}

fn value(rng: &mut Mt19937_64) -> u64 {
    rng.next_below(VALUE_BOUND)
}

/// `parts` versions spread evenly up to `max`: `max/parts, 2·max/parts, …, max`.
fn spread_versions(max: u64, parts: u64) -> Vec<u64> {
    (1..=parts).map(|i| max * i / parts).collect()
}

/// What every workload shares: the probe streams, drawn over the keys the
/// state holds after `main`, and the pool size.
struct Builder {
    workload: &'static str,
    smoke: bool,
    rng: Mt19937_64,
    threads: usize,
    preload: Vec<Op>,
    main: Vec<Vec<Op>>,
    extract_versions: Vec<u64>,
    batch_pairs: usize,
}

impl Builder {
    fn finish(mut self) -> Plan {
        let rng = &mut self.rng;
        let mut seen: HashSet<u64> = HashSet::new();
        let mut keys: Vec<u64> = Vec::new();
        for op in self.preload.iter().chain(self.main.iter().flatten()) {
            if let Op::Put { key, .. } | Op::Remove { key } = *op {
                if seen.insert(key) {
                    keys.push(key);
                }
            }
        }
        let main_writes = writes_in(&self.main);
        let has_finds = self.main.iter().flatten().any(|op| !op.is_write());
        let v_pre = self.preload.len() as u64;
        let v_main = v_pre + main_writes as u64;
        let pick = |rng: &mut Mt19937_64| keys[rng.next_below(keys.len() as u64) as usize];

        let find_probe = if has_finds {
            Vec::new()
        } else {
            (0..sized(1 << 19, self.smoke))
                .map(|_| Op::Find { key: pick(rng), version: v_main })
                .collect()
        };
        let scans = (0..sized(1 << 16, self.smoke))
            .map(|_| (pick(rng), 1 + rng.next_below(100) as u32))
            .collect();
        let mut fresh = |rng: &mut Mt19937_64, n: usize| -> Vec<(u64, u64)> {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let key = rng.next_u64();
                if seen.insert(key) {
                    out.push((key, value(rng)));
                }
            }
            out
        };
        let write_probe = if main_writes > 0 {
            Vec::new()
        } else {
            fresh(rng, sized(1 << 15, self.smoke))
                .into_iter()
                .map(|(key, value)| Op::Put { key, value })
                .collect()
        };
        let batch_probe = fresh(rng, self.batch_pairs);

        let writes = self.preload.len() + main_writes + write_probe.len() + batch_probe.len();
        let new_keys = keys.len() + write_probe.len() + batch_probe.len();
        // Measured today: ~208 B per single-version key, at most 2 × 32 B per
        // appended version plus segment headers. Sized with room to spare;
        // the file is sparse, untouched pages cost nothing.
        let pool_bytes = (32 << 20) + new_keys * 320 + writes * 96;
        let fuzzy = if self.threads > 1 { (v_pre, v_main) } else { (0, 0) };
        let plan = Plan {
            workload: self.workload,
            threads: self.threads,
            preload: self.preload,
            main: self.main,
            find_probe,
            write_probe,
            batch_probe,
            scans,
            scan_version: v_main,
            extract_versions: self.extract_versions,
            fuzzy,
            pool_bytes,
        };
        let named = |v: u64| plan.fuzzy.0 < v && v < plan.fuzzy.1;
        assert!(
            !plan.extract_versions.iter().any(|&v| named(v)),
            "{}: a snapshot version falls in the racing range",
            plan.workload
        );
        plan
    }
}

/// T=1. 2^18 keys with one version each (≈ 76 MiB of PM and DRAM, far beyond
/// the 4 MiB L2); scrambled-zipfian (θ = 0.99) `find` at the newest snapshot.
fn read_large(seed: u64, smoke: bool) -> Plan {
    let keys = sized(1 << 18, smoke) as u64;
    let mut values = Mt19937_64::new(derive_seed(seed, 1));
    let mut picks = Mt19937_64::new(derive_seed(seed, 2));
    let preload: Vec<Op> =
        (0..keys).map(|rank| Op::Put { key: key_of(rank), value: value(&mut values) }).collect();
    let zipf = Zipfian::new(keys, 0.99);
    let main = (0..sized(1 << 20, smoke))
        .map(|_| Op::Find { key: key_of(zipf.next(&mut picks)), version: keys })
        .collect();
    Builder {
        workload: "read_large",
        smoke,
        rng: Mt19937_64::new(derive_seed(seed, 3)),
        threads: 1,
        preload,
        main: vec![main],
        extract_versions: spread_versions(keys, 4),
        batch_pairs: sized(1 << 15, smoke),
    }
    .finish()
}

/// T=1. 4096 keys × 256 versions (the index fits in L2); `find(key, v)` with
/// key uniform and `v` uniform over the whole history (paper Fig 3).
fn read_deep(seed: u64, smoke: bool) -> Plan {
    let n_keys = if smoke { 64 } else { 4096 };
    let depth = if smoke { 32 } else { 256 };
    let mut rng = Mt19937_64::new(derive_seed(seed, 1));
    let keys = mvkv_workload::keys::unique_keys(&mut rng, n_keys);
    let mut preload = Vec::with_capacity(n_keys * depth);
    for _ in 0..depth {
        for &key in &keys {
            preload.push(Op::Put { key, value: value(&mut rng) });
        }
    }
    let latest = preload.len() as u64;
    let mut picks = Mt19937_64::new(derive_seed(seed, 2));
    let main = (0..sized(1 << 20, smoke))
        .map(|_| Op::Find {
            key: keys[picks.next_below(n_keys as u64) as usize],
            version: 1 + picks.next_below(latest),
        })
        .collect();
    Builder {
        workload: "read_deep",
        smoke,
        rng: Mt19937_64::new(derive_seed(seed, 3)),
        threads: 1,
        preload,
        main: vec![main],
        extract_versions: spread_versions(latest, 4),
        batch_pairs: sized(1 << 15, smoke),
    }
    .finish()
}

/// T=1. Empty store, then 2^18 fresh unique keys by `insert` and 2^17 more by
/// `insert_batch` (paper Fig 2a).
fn write_fresh(seed: u64, smoke: bool) -> Plan {
    let n = sized(1 << 18, smoke);
    let mut rng = Mt19937_64::new(derive_seed(seed, 1));
    let main: Vec<Op> = mvkv_workload::unique_pairs(&mut rng, n)
        .into_iter()
        .map(|kv| Op::Put { key: kv.key, value: kv.value })
        .collect();
    Builder {
        workload: "write_fresh",
        smoke,
        rng: Mt19937_64::new(derive_seed(seed, 3)),
        threads: 1,
        preload: Vec::new(),
        main: vec![main],
        extract_versions: spread_versions(n as u64, 4),
        batch_pairs: sized(1 << 17, smoke),
    }
    .finish()
}

/// T=2. YCSB-A lane streams over 2^17 preloaded keys: 50 % update, 50 % read
/// at the newest snapshot, θ = 0.99. Each thread owns the lanes `l ≡ t
/// (mod 2)` and takes them round-robin, which keeps same-key operations in
/// generation order while the keys in flight range over the whole keyspace.
fn mixed_a(seed: u64, smoke: bool) -> Plan {
    const THREADS: usize = 2;
    let mix = MixConfig {
        kind: MixKind::YcsbA,
        ops: sized(1 << 20, smoke),
        keyspace: sized(1 << 17, smoke) as u64,
        theta: 0.99,
        seed: derive_seed(seed, 1),
    }
    .generate();
    let preload: Vec<Op> = mix.load.iter().map(|&(key, value)| Op::Put { key, value }).collect();
    let main = (0..THREADS)
        .map(|t| {
            let lanes: Vec<&Vec<MixOp>> = mix.lanes.iter().skip(t).step_by(THREADS).collect();
            let longest = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
            (0..longest)
                .flat_map(|i| lanes.iter().filter_map(move |lane| lane.get(i)))
                .map(|op| match *op {
                    MixOp::Update { key, value } => Op::Put { key, value },
                    MixOp::Read { key } => Op::Latest { key },
                    other => unreachable!("YCSB-A generates only updates and reads, got {other:?}"),
                })
                .collect()
        })
        .collect();
    let v_pre = preload.len() as u64;
    let mut b = Builder {
        workload: "mixed_a",
        smoke,
        rng: Mt19937_64::new(derive_seed(seed, 3)),
        threads: THREADS,
        preload,
        main,
        extract_versions: Vec::new(),
        batch_pairs: sized(1 << 15, smoke),
    };
    // Snapshots inside the two-thread phase depend on the interleaving;
    // extract before it and after it, where the oracle can follow.
    let v_main = v_pre + writes_in(&b.main) as u64;
    b.extract_versions = vec![v_pre / 2, v_pre, v_main, v_main];
    b.finish()
}

/// T=1. The paper's canonical state (N inserts, N removes, N inserts of other
/// keys; N = 2^16, so 2^17 keys) queried as in Fig 3b (`find` of a random
/// key at a random version), extracted at 8 versions (Fig 4) and reopened
/// (Fig 5).
fn snapshot_restart(seed: u64, smoke: bool) -> Plan {
    let n = sized(1 << 16, smoke);
    let w = Scenario::new(n, 1, derive_seed(seed, 1)).generate();
    let put = |kv: &mvkv_workload::KeyValue| Op::Put { key: kv.key, value: kv.value };
    let preload: Vec<Op> = w
        .first_inserts
        .iter()
        .map(put)
        .chain(w.removals.iter().map(|&key| Op::Remove { key }))
        .chain(w.second_inserts.iter().map(put))
        .collect();
    let latest = preload.len() as u64;
    let main = w
        .query_mix(sized(1 << 20, smoke), latest, derive_seed(seed, 2))
        .remove(0)
        .into_iter()
        .map(|(key, version)| Op::Find { key, version })
        .collect();
    Builder {
        workload: "snapshot_restart",
        smoke,
        rng: Mt19937_64::new(derive_seed(seed, 3)),
        threads: 1,
        preload,
        main: vec![main],
        extract_versions: spread_versions(latest, 8),
        batch_pairs: sized(1 << 15, smoke),
    }
    .finish()
}

/// The committed fingerprints: `<workload>[.smoke] <hex>` per line.
const FINGERPRINTS_LOCK: &str = include_str!("../fingerprints.lock");

pub fn lock_name(workload: &str, smoke: bool) -> String {
    if smoke {
        format!("{workload}.smoke")
    } else {
        workload.to_string()
    }
}

/// Checks `plan` against `fingerprints.lock`. Only the default seed is
/// pinned; any other seed passes.
pub fn check_fingerprint(plan: &Plan, seed: u64, smoke: bool) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let name = lock_name(plan.workload, smoke);
    let pinned = FINGERPRINTS_LOCK
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, hex)| hex.trim())
        .ok_or_else(|| format!("fingerprints.lock has no line for {name}"))?;
    let got = format!("{:016x}", plan.fingerprint());
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "generated stream of {name} differs from benchmark/fingerprints.lock \
             (pinned {pinned}, generated {got}): the generators in crates/workload changed, \
             so results are not comparable with earlier ones. If the change is intended, \
             regenerate the file with `fingerprints` and re-measure the baseline."
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in WORKLOADS {
            let a = generate(w, 7, true).unwrap().fingerprint();
            let b = generate(w, 7, true).unwrap().fingerprint();
            let c = generate(w, 8, true).unwrap().fingerprint();
            assert_eq!(a, b, "{w}");
            assert_ne!(a, c, "{w}");
        }
        assert!(generate("nope", 7, true).is_none());
    }

    #[test]
    fn default_seed_matches_the_lock_and_other_seeds_are_not_checked() {
        for w in WORKLOADS {
            let plan = generate(w, DEFAULT_SEED, true).unwrap();
            check_fingerprint(&plan, DEFAULT_SEED, true).unwrap();
            let other = generate(w, 7, true).unwrap();
            check_fingerprint(&other, 7, true).unwrap();
            // A drifted stream under the default seed is refused.
            let err = check_fingerprint(&other, DEFAULT_SEED, true).unwrap_err();
            assert!(err.contains("fingerprints.lock"), "{err}");
        }
    }

    #[test]
    fn probes_fill_exactly_what_main_lacks() {
        for w in WORKLOADS {
            let p = generate(w, 7, true).unwrap();
            let main_reads = p.main.iter().flatten().any(|op| !op.is_write());
            assert_eq!(p.find_probe.is_empty(), main_reads, "{w}");
            assert_eq!(p.write_probe.is_empty(), p.main_writes() > 0, "{w}");
            assert!(!p.batch_probe.is_empty() && !p.scans.is_empty(), "{w}");
            assert_eq!(p.main.len(), p.threads, "{w}");
        }
    }

    #[test]
    fn mixed_a_keeps_same_key_ops_on_one_thread() {
        let p = generate("mixed_a", 7, true).unwrap();
        let keys_of = |t: usize| -> HashSet<u64> {
            p.main[t]
                .iter()
                .filter_map(|op| match *op {
                    Op::Put { key, .. } => Some(key),
                    _ => None,
                })
                .collect()
        };
        assert!(keys_of(0).is_disjoint(&keys_of(1)));
    }
}
