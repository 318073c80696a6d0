//! YCSB-style operation mixes: deterministic, lane-partitioned op streams.
//!
//! One [`MixConfig`] describes a scenario (a YCSB A–F analogue, hot-key
//! skew, or the churn/GC-adversarial tag-heavy mix); [`MixConfig::generate`]
//! expands it into a [`MixPlan`]: a preload key set plus [`LANES`] (64)
//! independent operation streams derived from one master seed.
//!
//! ## Why lanes
//!
//! The store's concurrency contract (core crate docs) requires mutations of
//! the *same* key to be externally ordered. A zipfian mix hammers a few hot
//! keys, so naive contiguous partitioning of one global stream would hand
//! the same hot key to several threads at once. Instead every generated op
//! is routed to the lane owning its anchor key (`mix64(key) % LANES`), and a
//! run with `T` threads gives thread `t` the lanes `l ≡ t (mod T)`, each
//! executed in lane order. Properties:
//!
//! * **Thread-count independence** — the 64 lane streams are a pure function
//!   of the seed; 1, 4 and 8-thread runs replay byte-identical streams, just
//!   grouped differently (the property test pins this).
//! * **Same-key ordering** — all ops anchored on a key share a lane, hence a
//!   thread, hence a serial order.
//! * **Determinism** — [`MixPlan::fingerprint`] digests load + lanes; equal
//!   seeds ⇒ equal fingerprints across runs, machines and thread counts.
//!
//! Ranks from the zipfian sampler are spread onto keys through the
//! [`mix64`] bijection (the scrambled-zipfian construction), so hot keys
//! scatter across the ordered index instead of clustering at its head.

use crate::keys::{derive_seed, mix64, stream_fingerprint};
use crate::mt19937::Mt19937_64;
use crate::scenario::VALUE_BOUND;
use crate::zipf::Zipfian;

/// Number of independent op streams per plan. Fixed (not the thread count!)
/// so streams never depend on `T`; any `T ≤ LANES` divides the lanes evenly
/// enough, and `T > LANES` would leave threads idle — the harness caps at 64
/// workers, matching the paper's largest configuration.
pub const LANES: usize = 64;

/// One operation of a generated mix stream. Keys/values are concrete at
/// generation time — executing a stream issues no PRNG draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// Point lookup at the newest consistent snapshot.
    Read { key: u64 },
    /// First write of a fresh key (YCSB D/E insert portion, churn).
    Insert { key: u64, value: u64 },
    /// Overwrite of a (probably) existing key.
    Update { key: u64, value: u64 },
    /// Short ordered scan of at most `len` live pairs starting at `lo`,
    /// served from the snapshot iterator (YCSB E).
    Scan { lo: u64, len: u32 },
    /// Read-modify-write: read at the watermark, write `old + delta`
    /// (YCSB F).
    Rmw { key: u64, delta: u64 },
    /// Tombstone append (churn).
    Remove { key: u64 },
    /// Labeled tag — pins a snapshot, feeding the GC-adversarial pressure
    /// of the churn scenario.
    Tag { label: u64 },
}

impl MixOp {
    /// Stable 3-word encoding folded into fingerprints.
    fn words(&self) -> [u64; 3] {
        match *self {
            MixOp::Read { key } => [1, key, 0],
            MixOp::Insert { key, value } => [2, key, value],
            MixOp::Update { key, value } => [3, key, value],
            MixOp::Scan { lo, len } => [4, lo, len as u64],
            MixOp::Rmw { key, delta } => [5, key, delta],
            MixOp::Remove { key } => [6, key, 0],
            MixOp::Tag { label } => [7, label, 0],
        }
    }

    /// The op's key: the one whose lane serializes it (a scan's `lo`, a
    /// tag's label).
    pub fn anchor(&self) -> u64 {
        match *self {
            MixOp::Read { key }
            | MixOp::Insert { key, .. }
            | MixOp::Update { key, .. }
            | MixOp::Rmw { key, .. }
            | MixOp::Remove { key } => key,
            MixOp::Scan { lo, .. } => lo,
            MixOp::Tag { label } => label,
        }
    }
}

/// The eight scenarios of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// 50% update / 50% read (YCSB A, "update heavy").
    YcsbA,
    /// 5% update / 95% read (YCSB B, "read mostly").
    YcsbB,
    /// 100% read (YCSB C).
    YcsbC,
    /// 5% insert / 95% read skewed to recent inserts (YCSB D, "read latest").
    YcsbD,
    /// 5% insert / 95% short range scans over snapshots (YCSB E).
    YcsbE,
    /// 50% read / 50% read-modify-write (YCSB F).
    YcsbF,
    /// YCSB-A shape at theta 1.2: a handful of keys absorb most writes.
    HotKey,
    /// GC-adversarial churn: fresh inserts, removes of recent keys, frequent
    /// labeled tags (pinning snapshots), some hot updates.
    Churn,
}

impl MixKind {
    pub fn all() -> [MixKind; 8] {
        [
            MixKind::YcsbA,
            MixKind::YcsbB,
            MixKind::YcsbC,
            MixKind::YcsbD,
            MixKind::YcsbE,
            MixKind::YcsbF,
            MixKind::HotKey,
            MixKind::Churn,
        ]
    }

    /// Stable scenario name (also [`MixPlan::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            MixKind::YcsbA => "ycsb_a",
            MixKind::YcsbB => "ycsb_b",
            MixKind::YcsbC => "ycsb_c",
            MixKind::YcsbD => "ycsb_d",
            MixKind::YcsbE => "ycsb_e",
            MixKind::YcsbF => "ycsb_f",
            MixKind::HotKey => "hot_key",
            MixKind::Churn => "churn",
        }
    }

    /// Stable index (seed-lane derivation in the harness).
    pub fn index(&self) -> u64 {
        match self {
            MixKind::YcsbA => 0,
            MixKind::YcsbB => 1,
            MixKind::YcsbC => 2,
            MixKind::YcsbD => 3,
            MixKind::YcsbE => 4,
            MixKind::YcsbF => 5,
            MixKind::HotKey => 6,
            MixKind::Churn => 7,
        }
    }

    /// Skew default: YCSB's classic 0.99 except the dedicated scenarios.
    pub fn default_theta(&self) -> f64 {
        match self {
            MixKind::HotKey => 1.2,
            MixKind::Churn => 0.5,
            _ => 0.99,
        }
    }
}

/// A scenario description; [`generate`](MixConfig::generate) expands it.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    pub kind: MixKind,
    /// Ops in the run phase (across all lanes).
    pub ops: usize,
    /// Preloaded keys; zipfian ranks are drawn over this population.
    pub keyspace: u64,
    /// Zipfian skew (not 1.0; see [`Zipfian::new`]).
    pub theta: f64,
    /// Master seed; op/value sub-streams are split off via
    /// [`derive_seed`].
    pub seed: u64,
}

impl MixConfig {
    /// Canonical parameters for `kind`: `ops` run ops over a keyspace of
    /// half that (min 256), default skew, sub-seeded from `master` by the
    /// scenario index.
    pub fn canonical(kind: MixKind, ops: usize, master: u64) -> MixConfig {
        MixConfig {
            kind,
            ops,
            keyspace: (ops as u64 / 2).max(256),
            theta: kind.default_theta(),
            seed: derive_seed(master, kind.index()),
        }
    }

    /// Expands the config into the preload set and the 64 lane streams.
    /// Pure function of the config — no ambient state, no clocks.
    pub fn generate(&self) -> MixPlan {
        assert!(self.keyspace >= 1);
        let mut op_rng = Mt19937_64::new(derive_seed(self.seed, 1));
        let mut val_rng = Mt19937_64::new(derive_seed(self.seed, 2));
        let zipf = Zipfian::new(self.keyspace, self.theta);

        // Preload: ranks 0..keyspace spread through the key bijection, so
        // the hot ranks scatter across the ordered index.
        let load: Vec<(u64, u64)> =
            (0..self.keyspace).map(|r| (key_of(r), val_rng.next_below(VALUE_BOUND))).collect();

        let mut lanes: Vec<Vec<MixOp>> = vec![Vec::new(); LANES];
        // Fresh keys continue the rank sequence past the preload; mix64 is
        // a bijection, so they can never collide with preloaded keys.
        let mut fresh = 0u64;
        // Insertion-ordered fresh keys, for read-latest and churn removes.
        let mut recent: Vec<u64> = Vec::new();
        let mut tag_seq = 0u64;

        for _ in 0..self.ops {
            let pct = op_rng.next_below(100);
            let op = match self.kind {
                MixKind::YcsbA | MixKind::HotKey => {
                    if pct < 50 {
                        MixOp::Update {
                            key: key_of(zipf.next(&mut op_rng)),
                            value: val_rng.next_below(VALUE_BOUND),
                        }
                    } else {
                        MixOp::Read { key: key_of(zipf.next(&mut op_rng)) }
                    }
                }
                MixKind::YcsbB | MixKind::YcsbC => {
                    // B: 5% updates; C: pure reads.
                    if self.kind == MixKind::YcsbB && pct < 5 {
                        MixOp::Update {
                            key: key_of(zipf.next(&mut op_rng)),
                            value: val_rng.next_below(VALUE_BOUND),
                        }
                    } else {
                        MixOp::Read { key: key_of(zipf.next(&mut op_rng)) }
                    }
                }
                MixKind::YcsbD => {
                    if pct < 5 || recent.is_empty() {
                        let key = key_of(self.keyspace + fresh);
                        fresh += 1;
                        recent.push(key);
                        MixOp::Insert { key, value: val_rng.next_below(VALUE_BOUND) }
                    } else {
                        // Read-latest: uniform over a sliding window of the
                        // most recently inserted keys.
                        let window = recent.len().min(16) as u64;
                        let lag = op_rng.next_below(window) as usize;
                        MixOp::Read { key: recent[recent.len() - 1 - lag] }
                    }
                }
                MixKind::YcsbE => {
                    if pct < 5 {
                        let key = key_of(self.keyspace + fresh);
                        fresh += 1;
                        MixOp::Insert { key, value: val_rng.next_below(VALUE_BOUND) }
                    } else {
                        MixOp::Scan {
                            lo: key_of(zipf.next(&mut op_rng)),
                            len: 1 + op_rng.next_below(100) as u32,
                        }
                    }
                }
                MixKind::YcsbF => {
                    if pct < 50 {
                        MixOp::Rmw {
                            key: key_of(zipf.next(&mut op_rng)),
                            delta: val_rng.next_below(1 << 32),
                        }
                    } else {
                        MixOp::Read { key: key_of(zipf.next(&mut op_rng)) }
                    }
                }
                MixKind::Churn => {
                    if pct < 40 {
                        let key = key_of(self.keyspace + fresh);
                        fresh += 1;
                        recent.push(key);
                        MixOp::Insert { key, value: val_rng.next_below(VALUE_BOUND) }
                    } else if pct < 70 && !recent.is_empty() {
                        let i = op_rng.next_below(recent.len() as u64) as usize;
                        MixOp::Remove { key: recent[i] }
                    } else if pct < 80 {
                        tag_seq += 1;
                        MixOp::Tag { label: tag_seq }
                    } else {
                        MixOp::Update {
                            key: key_of(zipf.next(&mut op_rng)),
                            value: val_rng.next_below(VALUE_BOUND),
                        }
                    }
                }
            };
            lanes[lane_of(op.anchor())].push(op);
        }

        MixPlan { name: self.kind.name(), load, lanes }
    }
}

/// Rank → key spreading bijection (scrambled zipfian).
#[inline]
pub fn key_of(rank: u64) -> u64 {
    mix64(rank)
}

/// The lane serializing ops anchored on `x`.
#[inline]
pub fn lane_of(x: u64) -> usize {
    // mix64 is already well-spread but `x` here is a *key* (itself a mix64
    // image); hash again so lane routing is independent of rank order.
    (mix64(x) % LANES as u64) as usize
}

/// A fully generated scenario: preload pairs plus 64 lane streams.
#[derive(Debug, Clone)]
pub struct MixPlan {
    /// Scenario name (see [`MixKind::name`]).
    pub name: &'static str,
    /// Preload pairs, in rank order (keys unique by construction).
    pub load: Vec<(u64, u64)>,
    /// The `LANES` independent op streams.
    pub lanes: Vec<Vec<MixOp>>,
}

impl MixPlan {
    /// Total run-phase ops across all lanes.
    pub fn total_ops(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// The ops thread `tid` of a `threads`-wide run executes, in order:
    /// its lanes (`lane % threads == tid`), each lane in stream order.
    /// Concatenating over all `tid` for any `threads` yields the same
    /// multiset of ops with identical per-lane order.
    pub fn ops_for_thread(&self, tid: usize, threads: usize) -> Vec<MixOp> {
        assert!(threads > 0 && tid < threads);
        self.lanes
            .iter()
            .enumerate()
            .filter(|(l, _)| l % threads == tid)
            .flat_map(|(_, lane)| lane.iter().copied())
            .collect()
    }

    /// Order-sensitive digest of preload + every lane stream. Two plans
    /// fingerprint equal iff they replay identically on any thread count.
    pub fn fingerprint(&self) -> u64 {
        let load = self.load.iter().flat_map(|&(k, v)| [k, v]);
        let lanes = self.lanes.iter().enumerate().flat_map(|(l, lane)| {
            // Lane index + length delimit the stream so lane boundaries
            // cannot alias between plans.
            [l as u64, lane.len() as u64].into_iter().chain(lane.iter().flat_map(|op| op.words()))
        });
        stream_fingerprint(load.chain(lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small(kind: MixKind) -> MixPlan {
        MixConfig { kind, ops: 500, keyspace: 128, theta: kind.default_theta(), seed: 0xFACE }
            .generate()
    }

    #[test]
    fn every_kind_generates_the_requested_volume() {
        for kind in MixKind::all() {
            let plan = small(kind);
            assert_eq!(plan.total_ops(), 500, "{}", kind.name());
            assert_eq!(plan.load.len(), 128);
            assert_eq!(plan.lanes.len(), LANES);
        }
    }

    #[test]
    fn preload_keys_are_unique_and_disjoint_from_fresh_inserts() {
        let plan = small(MixKind::Churn);
        let mut keys: HashSet<u64> = plan.load.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys.len(), plan.load.len());
        for lane in &plan.lanes {
            for op in lane {
                if let MixOp::Insert { key, .. } = op {
                    assert!(keys.insert(*key), "fresh key {key} collides");
                }
            }
        }
    }

    #[test]
    fn ops_are_routed_to_their_anchor_lane() {
        let plan = small(MixKind::YcsbA);
        for (l, lane) in plan.lanes.iter().enumerate() {
            for op in lane {
                assert_eq!(lane_of(op.anchor()), l);
            }
        }
    }

    #[test]
    fn thread_partitions_cover_all_lanes_exactly_once() {
        let plan = small(MixKind::YcsbF);
        for threads in [1, 3, 4, 8, 64] {
            let total: usize = (0..threads).map(|t| plan.ops_for_thread(t, threads).len()).sum();
            assert_eq!(total, plan.total_ops(), "threads={threads}");
        }
        // Single-threaded replay is the lanes concatenated in order.
        let solo = plan.ops_for_thread(0, 1);
        let flat: Vec<MixOp> = plan.lanes.iter().flat_map(|l| l.iter().copied()).collect();
        assert_eq!(solo, flat);
    }

    #[test]
    fn fingerprints_are_stable_and_seed_sensitive() {
        for kind in MixKind::all() {
            let a = small(kind);
            let b = small(kind);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", kind.name());
            let c = MixConfig {
                kind,
                ops: 500,
                keyspace: 128,
                theta: kind.default_theta(),
                seed: 0xFACF,
            }
            .generate();
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", kind.name());
        }
    }

    #[test]
    fn kinds_emit_their_signature_ops() {
        let has =
            |kind: MixKind, pred: fn(&MixOp) -> bool| small(kind).lanes.iter().flatten().any(pred);
        assert!(has(MixKind::YcsbA, |op| matches!(op, MixOp::Update { .. })));
        assert!(has(MixKind::YcsbC, |op| matches!(op, MixOp::Read { .. })));
        assert!(!has(MixKind::YcsbC, |op| !matches!(op, MixOp::Read { .. })));
        assert!(has(MixKind::YcsbD, |op| matches!(op, MixOp::Insert { .. })));
        assert!(has(MixKind::YcsbE, |op| matches!(op, MixOp::Scan { .. })));
        assert!(has(MixKind::YcsbF, |op| matches!(op, MixOp::Rmw { .. })));
        assert!(has(MixKind::Churn, |op| matches!(op, MixOp::Tag { .. })));
        assert!(has(MixKind::Churn, |op| matches!(op, MixOp::Remove { .. })));
    }

    #[test]
    fn canonical_configs_differ_per_kind() {
        let mut seeds = HashSet::new();
        for kind in MixKind::all() {
            let cfg = MixConfig::canonical(kind, 1000, 0x5EED);
            assert!(seeds.insert(cfg.seed), "sub-seed collision for {}", kind.name());
        }
    }
}
