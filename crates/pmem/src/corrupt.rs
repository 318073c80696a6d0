//! Seeded media-fault injection — the corruption plane of the crash
//! simulator.
//!
//! The crash backend ([`crate::backend::CrashSim`]) models *clean* power
//! failures: the durable image is always some legal subset of explicitly
//! persisted cache lines. Real PM fails dirtier — bit flips from worn
//! cells, torn 64-byte lines from interrupted media writes, zeroed or
//! scrambled blocks from misdirected DMA, and truncated pools from partial
//! file copies. This module injects exactly those faults into a captured
//! pool image, deterministically from a seed, and reports every fault it
//! planted so recovery tests can assert *exact* quarantine accounting.
//!
//! The plan is a fluent, seeded builder with an inert
//! [`CorruptOptions::none`] default.
//! Faults are counts rather than probabilities — a test that asks for 3 bit
//! flips gets exactly 3, at seed-determined positions.
//!
//! Faults land in the heap region only (`[HEAP_START, bump)`). Superblock
//! damage is a different failure class: magic/version/length corruption is
//! *detected* at open and reported as a hard [`crate::PmemError`] — there
//! is nothing to salvage if the pool can't be identified. Truncation is the
//! exception: the superblock records the pool length, so a salvage open can
//! re-pad the tail with zeros (which then fail record checksums and are
//! quarantined) — see [`pad_to_recorded_len`].

use crate::layout::{HEAP_START, MIN_POOL_LEN, OFF_BUMP, OFF_POOL_LEN};

/// One deterministic corruption plan. All faults derive from `seed`; the
/// same options over the same image always damage the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptOptions {
    seed: u64,
    bit_flips: u32,
    torn_lines: u32,
    zeroed_blocks: u32,
    scrambled_blocks: u32,
    truncate_bytes: u64,
}

/// Classes of injected media damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A single flipped bit.
    BitFlip,
    /// A 64-byte cache line reverted to zeros (stale line that never
    /// reached media).
    TornLine,
    /// A [`CORRUPT_BLOCK_LEN`]-byte region zeroed.
    ZeroedBlock,
    /// A [`CORRUPT_BLOCK_LEN`]-byte region overwritten with seeded garbage.
    ScrambledBlock,
    /// Bytes removed from the end of the image.
    Truncation,
}

/// Region size used by zeroed/scrambled block faults.
pub const CORRUPT_BLOCK_LEN: usize = 256;

/// One planted fault: exactly which bytes were damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    pub kind: FaultKind,
    /// Image offset of the damaged range.
    pub offset: u64,
    /// Length of the damaged range (1 for bit flips: the containing byte).
    pub len: usize,
}

impl CorruptOptions {
    /// No faults at all — the inert plan.
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// Starts an empty plan with deterministic randomness from `seed`.
    pub fn seeded(seed: u64) -> Self {
        CorruptOptions {
            seed,
            bit_flips: 0,
            torn_lines: 0,
            zeroed_blocks: 0,
            scrambled_blocks: 0,
            truncate_bytes: 0,
        }
    }

    /// Flip `n` individual bits at seed-chosen heap positions.
    pub fn bit_flips(mut self, n: u32) -> Self {
        self.bit_flips = n;
        self
    }

    /// Zero `n` seed-chosen 64-byte cache lines (torn media writes).
    pub fn torn_lines(mut self, n: u32) -> Self {
        self.torn_lines = n;
        self
    }

    /// Zero `n` seed-chosen [`CORRUPT_BLOCK_LEN`]-byte regions.
    pub fn zeroed_blocks(mut self, n: u32) -> Self {
        self.zeroed_blocks = n;
        self
    }

    /// Overwrite `n` seed-chosen regions with pseudo-random garbage.
    pub fn scrambled_blocks(mut self, n: u32) -> Self {
        self.scrambled_blocks = n;
        self
    }

    /// Drop `n` bytes from the end of the image (clamped so at least the
    /// superblock survives).
    pub fn truncate_bytes(mut self, n: u64) -> Self {
        self.truncate_bytes = n;
        self
    }

    /// True if this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.bit_flips == 0
            && self.torn_lines == 0
            && self.zeroed_blocks == 0
            && self.scrambled_blocks == 0
            && self.truncate_bytes == 0
    }
}

/// SplitMix64 — the same tiny deterministic generator the cluster fault
/// plane uses; good avalanche, zero dependencies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Damages `image` per `opts` and returns every fault planted, in injection
/// order. Bit flips, torn lines and block faults target the written heap
/// (`[HEAP_START, bump)`, falling back to the full heap when the bump
/// cursor is unreadable); truncation shortens the image itself.
pub fn inject(image: &mut Vec<u8>, opts: &CorruptOptions) -> Vec<InjectedFault> {
    let mut faults = Vec::new();
    if opts.is_none() || image.len() < MIN_POOL_LEN {
        return faults;
    }
    let mut rng = SplitMix64(opts.seed ^ 0xC0FF_EE00_BAD0_CAFE);
    let read_word = |img: &[u8], off: u64| {
        let b: [u8; 8] = img[off as usize..off as usize + 8].try_into().unwrap();
        u64::from_le_bytes(b)
    };
    // Target the written heap: damage beyond the bump cursor hits bytes no
    // recovery walk ever reads.
    let bump = read_word(image, OFF_BUMP).clamp(HEAP_START, image.len() as u64);
    let heap_len = (bump - HEAP_START).max(64);

    for _ in 0..opts.bit_flips {
        let off = HEAP_START + rng.below(heap_len);
        let bit = rng.below(8) as u8;
        image[off as usize] ^= 1 << bit;
        faults.push(InjectedFault { kind: FaultKind::BitFlip, offset: off, len: 1 });
    }
    for _ in 0..opts.torn_lines {
        let off = (HEAP_START + rng.below(heap_len)) & !63;
        let end = (off as usize + 64).min(image.len());
        image[off as usize..end].fill(0);
        faults.push(InjectedFault {
            kind: FaultKind::TornLine,
            offset: off,
            len: end - off as usize,
        });
    }
    for _ in 0..opts.zeroed_blocks {
        let off = HEAP_START + rng.below(heap_len);
        let end = (off as usize + CORRUPT_BLOCK_LEN).min(image.len());
        image[off as usize..end].fill(0);
        faults.push(InjectedFault {
            kind: FaultKind::ZeroedBlock,
            offset: off,
            len: end - off as usize,
        });
    }
    for _ in 0..opts.scrambled_blocks {
        let off = HEAP_START + rng.below(heap_len);
        let end = (off as usize + CORRUPT_BLOCK_LEN).min(image.len());
        for b in &mut image[off as usize..end] {
            *b = rng.next_u64() as u8;
        }
        faults.push(InjectedFault {
            kind: FaultKind::ScrambledBlock,
            offset: off,
            len: end - off as usize,
        });
    }
    if opts.truncate_bytes > 0 {
        // Keep at least the superblock so the pool stays identifiable;
        // losing that too is the (hard-error) BadMagic class, not media
        // truncation of the heap.
        let keep = (image.len() as u64)
            .saturating_sub(opts.truncate_bytes)
            .max(HEAP_START) as usize;
        let dropped = image.len() - keep;
        image.truncate(keep);
        faults.push(InjectedFault {
            kind: FaultKind::Truncation,
            offset: keep as u64,
            len: dropped,
        });
    }
    faults
}

/// Re-pads a truncated image back to the length its superblock records,
/// filling with zeros. Returns the number of bytes restored (0 if the image
/// already matches or the superblock is unreadable). Zero padding is *not*
/// data recovery: any record in the restored range fails its checksum and
/// is quarantined by the salvage walk — but the pool becomes attachable
/// again instead of failing with `LengthMismatch`.
pub fn pad_to_recorded_len(image: &mut Vec<u8>) -> usize {
    if image.len() < HEAP_START as usize {
        return 0;
    }
    let b: [u8; 8] =
        image[OFF_POOL_LEN as usize..OFF_POOL_LEN as usize + 8].try_into().unwrap();
    let recorded = u64::from_le_bytes(b) as usize;
    if recorded > image.len() && recorded <= (1usize << 40) {
        let missing = recorded - image.len();
        image.resize(recorded, 0);
        missing
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PmemPool;

    fn image_with_data() -> Vec<u8> {
        let p = PmemPool::create_volatile(1 << 16).unwrap();
        for i in 0..32 {
            let off = p.alloc(64).unwrap();
            p.write_u64(off, 0x1111_2222_3333_4444 ^ i);
        }
        // SAFETY: [0, len) in bounds; no concurrent writer.
        unsafe { p.bytes(0, p.len()).to_vec() }
    }

    #[test]
    fn none_plan_is_inert() {
        let mut img = image_with_data();
        let before = img.clone();
        assert!(CorruptOptions::none().is_none());
        assert!(inject(&mut img, &CorruptOptions::none()).is_empty());
        assert_eq!(img, before);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let base = image_with_data();
        let opts = CorruptOptions::seeded(42).bit_flips(5).torn_lines(2).zeroed_blocks(1);
        let (mut a, mut b) = (base.clone(), base.clone());
        let fa = inject(&mut a, &opts);
        let fb = inject(&mut b, &opts);
        assert_eq!(fa, fb);
        assert_eq!(a, b);
        assert_ne!(a, base, "faults must actually damage bytes");
        // A different seed lands elsewhere.
        let mut c = base.clone();
        let fc = inject(&mut c, &CorruptOptions::seeded(43).bit_flips(5).torn_lines(2).zeroed_blocks(1));
        assert_ne!(fa, fc);
    }

    #[test]
    fn fault_counts_match_the_plan() {
        let mut img = image_with_data();
        let faults = inject(
            &mut img,
            &CorruptOptions::seeded(7).bit_flips(3).torn_lines(2).zeroed_blocks(1).scrambled_blocks(4),
        );
        let count = |k: FaultKind| faults.iter().filter(|f| f.kind == k).count();
        assert_eq!(count(FaultKind::BitFlip), 3);
        assert_eq!(count(FaultKind::TornLine), 2);
        assert_eq!(count(FaultKind::ZeroedBlock), 1);
        assert_eq!(count(FaultKind::ScrambledBlock), 4);
        assert_eq!(faults.len(), 10);
    }

    #[test]
    fn faults_stay_out_of_the_superblock() {
        let mut img = image_with_data();
        let faults = inject(
            &mut img,
            &CorruptOptions::seeded(99).bit_flips(50).torn_lines(20).zeroed_blocks(10).scrambled_blocks(10),
        );
        for f in &faults {
            assert!(f.offset >= HEAP_START, "{f:?} hit the superblock");
        }
        // Superblock still validates: the image remains attachable.
        assert!(PmemPool::open_image(&img).is_ok());
    }

    #[test]
    fn truncation_roundtrips_through_padding() {
        let mut img = image_with_data();
        let original_len = img.len();
        let faults = inject(&mut img, &CorruptOptions::seeded(1).truncate_bytes(4096));
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Truncation);
        assert_eq!(img.len(), original_len - 4096);
        // A plain open now fails with LengthMismatch…
        assert!(matches!(
            PmemPool::open_image(&img),
            Err(crate::PmemError::LengthMismatch { .. })
        ));
        // …but padding restores attachability.
        assert_eq!(pad_to_recorded_len(&mut img), 4096);
        assert_eq!(img.len(), original_len);
        assert!(PmemPool::open_image(&img).is_ok());
        // Padding an intact image is a no-op.
        assert_eq!(pad_to_recorded_len(&mut img), 0);
    }
}
