//! Deterministic, seeded fault-injection plane for the cluster runtime.
//!
//! A [`FaultPlan`] describes the adversary: per-link probabilities for
//! dropping, duplicating, corrupting and delaying messages, plus scheduled
//! rank crashes ("rank r dies after its Nth communication operation").
//! Threaded through [`crate::comm::Comm`] by
//! [`crate::comm::run_cluster_with_faults`], it lets every protocol run
//! under injected faults **reproducibly**: each rank derives its own
//! [`SplitMix64`] stream from `plan.seed ^ rank`, so the same plan and the
//! same send sequence always produce the same fault decisions, independent
//! of thread scheduling.
//!
//! The philosophy mirrors the pmem side's `CrashSim` (DESIGN.md §4.1):
//! recoverability claims are only credible when the failure injector is
//! deterministic enough to replay. `tests/fault_injection.rs` sweeps a
//! seed matrix over this plane.

/// Splittable 64-bit PRNG (public-domain SplitMix64) — tiny, seedable,
/// and good enough for fault coin flips; avoids an external `rand`
/// dependency in the library proper.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli trial; `p <= 0` never fires and consumes no randomness,
    /// so a zero-fault plan leaves the stream untouched.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            let _ = self.next_u64();
            return true;
        }
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform draw in `[0, n)`; `n = 0` returns 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A scheduled rank death: the rank panics (simulating a crash) on its
/// `after_ops + 1`-th communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    pub rank: usize,
    /// Communication operations (sends + receives) the rank completes
    /// before dying.
    pub after_ops: u64,
}

/// The adversary: per-link fault probabilities plus scheduled crashes.
///
/// Build with the fluent setters:
///
/// ```
/// use mvkv_cluster::FaultPlan;
/// let plan = FaultPlan::seeded(0xBAD5EED)
///     .drop(0.15)
///     .corrupt(0.10)
///     .duplicate(0.05)
///     .delay(0.05)
///     .crash(3, 40); // rank 3 dies after 40 comm ops
/// assert!(!plan.is_none());
/// assert!(FaultPlan::none().is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every rank's decision stream (`seed ^ rank`).
    pub seed: u64,
    /// Probability a sent frame silently vanishes.
    pub drop_p: f64,
    /// Probability a sent frame is delivered twice.
    pub duplicate_p: f64,
    /// Probability one byte of the frame is flipped in flight (the
    /// checksum turns this into a detected drop at the receiver).
    pub corrupt_p: f64,
    /// Probability a frame is held back and re-ordered behind the next
    /// frame on the same link.
    pub delay_p: f64,
    /// Scheduled rank deaths.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// The fail-free world: no drops, no crashes — protocols behave
    /// exactly as they do without the fault plane.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Starts a plan with the given decision seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    pub fn drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate_p = p;
        self
    }

    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    pub fn delay(mut self, p: f64) -> Self {
        self.delay_p = p;
        self
    }

    /// Schedules `rank` to crash after `after_ops` communication ops.
    pub fn crash(mut self, rank: usize, after_ops: u64) -> Self {
        self.crashes.push(CrashPoint { rank, after_ops });
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop_p <= 0.0
            && self.duplicate_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.delay_p <= 0.0
            && self.crashes.is_empty()
    }

    /// The op budget of `rank`, if a crash is scheduled for it.
    pub fn crash_for(&self, rank: usize) -> Option<u64> {
        self.crashes.iter().find(|c| c.rank == rank).map(|c| c.after_ops)
    }
}

/// Counters describing what the injector actually did on one rank's links
/// (plus what the rank's receiver discarded as corrupt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames handed to the send path.
    pub sent: u64,
    pub injected_drops: u64,
    pub injected_duplicates: u64,
    pub injected_corruptions: u64,
    pub injected_delays: u64,
    /// Received frames discarded because the checksum (or framing) failed.
    pub checksum_drops: u64,
}

/// What to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    pub deliver: bool,
    /// Byte index to flip before delivery.
    pub corrupt_at: Option<usize>,
    pub duplicate: bool,
    pub delay: bool,
}

impl Decision {
    pub(crate) const CLEAN: Decision =
        Decision { deliver: true, corrupt_at: None, duplicate: false, delay: false };
}

/// One rank's injector state: its decision stream, op counter, crash
/// budget, and fault counters. Owned by the rank's `Comm`.
#[derive(Debug)]
pub struct LinkFaults {
    drop_p: f64,
    duplicate_p: f64,
    corrupt_p: f64,
    delay_p: f64,
    active: bool,
    rng: SplitMix64,
    crash_after: Option<u64>,
    ops: u64,
    stats: FaultStats,
}

impl LinkFaults {
    pub fn new(plan: &FaultPlan, rank: usize) -> Self {
        LinkFaults {
            drop_p: plan.drop_p,
            duplicate_p: plan.duplicate_p,
            corrupt_p: plan.corrupt_p,
            delay_p: plan.delay_p,
            active: !plan.is_none(),
            rng: SplitMix64::new(plan.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            crash_after: plan.crash_for(rank),
            ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counts one communication op; returns `true` when the rank's crash
    /// point has been reached (the caller then simulates the death).
    pub(crate) fn note_op(&mut self) -> bool {
        self.ops += 1;
        matches!(self.crash_after, Some(limit) if self.ops > limit)
    }

    pub(crate) fn note_checksum_drop(&mut self) {
        self.stats.checksum_drops += 1;
    }

    /// Communication ops completed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Rolls the fate of one outgoing frame of `frame_len` bytes.
    /// Decision order is fixed (drop → corrupt → duplicate → delay) so a
    /// given seed and send sequence always replays identically.
    pub(crate) fn decide(&mut self, frame_len: usize) -> Decision {
        self.stats.sent += 1;
        if !self.active {
            return Decision::CLEAN;
        }
        if self.rng.chance(self.drop_p) {
            self.stats.injected_drops += 1;
            return Decision { deliver: false, ..Decision::CLEAN };
        }
        let corrupt_at = if self.rng.chance(self.corrupt_p) {
            self.stats.injected_corruptions += 1;
            Some(self.rng.below(frame_len as u64) as usize)
        } else {
            None
        };
        let duplicate = self.rng.chance(self.duplicate_p);
        if duplicate {
            self.stats.injected_duplicates += 1;
        }
        let delay = self.rng.chance(self.delay_p);
        if delay {
            self.stats.injected_delays += 1;
        }
        Decision { deliver: true, corrupt_at, duplicate, delay }
    }
}

/// Panic payload used to simulate a scheduled rank death; `run_cluster`
/// downcasts it into [`RankFailure::InjectedCrash`] and suppresses the
/// default panic-hook noise for it.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCrash {
    pub rank: usize,
    pub op: u64,
}

/// Why a rank's result is missing from a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// The fault plan scheduled this death.
    InjectedCrash { rank: usize, op: u64 },
    /// The rank body panicked on its own.
    Panic { rank: usize, message: String },
}

impl RankFailure {
    pub fn rank(&self) -> usize {
        match *self {
            RankFailure::InjectedCrash { rank, .. } | RankFailure::Panic { rank, .. } => rank,
        }
    }
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::InjectedCrash { rank, op } => {
                write!(f, "rank {rank} crashed by fault plan at comm op {op}")
            }
            RankFailure::Panic { rank, message } => write!(f, "rank {rank} panicked: {message}"),
        }
    }
}

impl std::error::Error for RankFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_varied() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "no repeats in 16 draws");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(7);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_rate_is_roughly_right() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        assert!((1_600..=2_400).contains(&hits), "0.2 rate gave {hits}/10000");
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let mut lf = LinkFaults::new(&FaultPlan::none(), 3);
        for len in 1..200usize {
            assert_eq!(lf.decide(len), Decision::CLEAN);
        }
        let s = lf.stats();
        assert_eq!(s.injected_drops + s.injected_corruptions + s.injected_duplicates, 0);
        assert_eq!(s.sent, 199);
    }

    #[test]
    fn decisions_replay_identically() {
        let plan = FaultPlan::seeded(99).drop(0.3).corrupt(0.2).duplicate(0.1).delay(0.1);
        let mut a = LinkFaults::new(&plan, 1);
        let mut b = LinkFaults::new(&plan, 1);
        for len in 1..500usize {
            assert_eq!(a.decide(len), b.decide(len));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn ranks_get_distinct_streams() {
        let plan = FaultPlan::seeded(5).drop(0.5);
        let mut a = LinkFaults::new(&plan, 0);
        let mut b = LinkFaults::new(&plan, 1);
        let da: Vec<bool> = (0..64).map(|_| a.decide(16).deliver).collect();
        let db: Vec<bool> = (0..64).map(|_| b.decide(16).deliver).collect();
        assert_ne!(da, db, "per-rank seeds must decorrelate the streams");
    }

    #[test]
    fn crash_point_fires_after_budget() {
        let plan = FaultPlan::seeded(1).crash(2, 3);
        let mut lf = LinkFaults::new(&plan, 2);
        assert!(!lf.note_op());
        assert!(!lf.note_op());
        assert!(!lf.note_op());
        assert!(lf.note_op(), "fourth op exceeds a budget of 3");
        let mut other = LinkFaults::new(&plan, 1);
        assert!((0..100).all(|_| !other.note_op()), "other ranks never crash");
    }

    #[test]
    fn plan_classifies_itself() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::seeded(1).drop(0.1).is_none());
        assert!(!FaultPlan::seeded(1).crash(1, 10).is_none());
        assert_eq!(FaultPlan::seeded(1).crash(1, 10).crash_for(1), Some(10));
        assert_eq!(FaultPlan::seeded(1).crash(1, 10).crash_for(2), None);
    }
}
