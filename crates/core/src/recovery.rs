//! Recovery outcomes: the typed error taxonomy and the quarantine report.
//!
//! Opening a store from damaged media must never panic and never silently
//! surface wrong data. Every open ([`crate::PSkipList::open_file`] /
//! [`crate::PSkipList::open_image`]) classifies what it finds:
//!
//! * **Hard errors** ([`RecoveryError`]) — damage to the structures that
//!   everything else hangs off (pool superblock, store root, a chain
//!   header's self-checksummed capacity word). Nothing can be recovered;
//!   the open fails with a typed reason instead of unwinding.
//! * **Quarantine** — localized damage. The corrupt records, pairs, or
//!   blocks are dropped from the recovered state, itemized in the
//!   [`QuarantineReport`] the open returns in its
//!   [`crate::RestartStats::quarantine`], and the open succeeds with
//!   everything that verified.
//!
//! The CRC layer underneath (entry payloads, segment headers, chain block
//! headers, allocator state words) is what makes the classification sound:
//! a record either verifies and is surfaced, or fails and is quarantined —
//! there is no "probably fine" path.

use mvkv_pmem::PmemError;

/// Why an open could not produce a store at all.
#[derive(Debug)]
pub enum RecoveryError {
    /// The pool itself failed to open or map (bad magic, wrong layout
    /// version, unrecoverable length mismatch, I/O error).
    Pool(PmemError),
    /// The pool is longer than the 2^32 bytes a store can use: its history
    /// offsets are 32 bits wide. (Creating a store on such a pool fails with
    /// this too, as an `InvalidInput` I/O error.)
    PoolTooLarge {
        /// The pool's length in bytes.
        len: u64,
    },
    /// The pool has no root object — nothing was ever committed.
    NoRoot,
    /// The root offset points outside the pool or is misaligned.
    CorruptRoot,
    /// The root carries no key-chain pointer.
    NoKeyChain,
    /// A chain's self-checksummed capacity word failed validation; every
    /// bounds computation depends on it, so the chain is unrecoverable.
    CorruptChainHeader {
        /// Which chain: `"keys"` or `"tags"`.
        chain: &'static str,
    },
    /// A recovery worker thread panicked (internal error).
    WorkerPanicked {
        /// Which phase: `"rebuild"`, `"scan"`, or `"prune"`.
        phase: &'static str,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Pool(e) => write!(f, "pool open failed: {e}"),
            RecoveryError::PoolTooLarge { len } => write!(
                f,
                "a pool of {len} bytes is longer than the 2^32 bytes (4 GiB) a store can use: \
                 history offsets are 32 bits"
            ),
            RecoveryError::NoRoot => write!(f, "pool has no root object"),
            RecoveryError::CorruptRoot => write!(f, "root offset is corrupt (out of bounds)"),
            RecoveryError::NoKeyChain => write!(f, "root has no key-chain pointer"),
            RecoveryError::CorruptChainHeader { chain } => {
                write!(f, "{chain} chain header failed its integrity check")
            }
            RecoveryError::WorkerPanicked { phase } => {
                write!(f, "recovery {phase} worker panicked")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Pool(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmemError> for RecoveryError {
    fn from(e: PmemError) -> Self {
        RecoveryError::Pool(e)
    }
}

impl From<RecoveryError> for std::io::Error {
    fn from(e: RecoveryError) -> Self {
        std::io::Error::other(e)
    }
}

/// What kind of damage quarantined a key's history suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionClass {
    /// A published record's payload failed its CRC32C.
    ChecksumInvalid,
    /// An entry's stamp word was malformed, or versions broke
    /// monotonicity — torn metadata.
    TornStamp,
    /// A segment link was missing, out of bounds, or its header failed
    /// validation.
    UnlinkedSegment,
    /// The history header offset itself was out of bounds — the key's
    /// entire history is unreachable.
    UnreachableHistory,
}

/// One quarantined key: damage class and how many claimed records were
/// dropped beyond the verified prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyQuarantine {
    pub key: u64,
    pub class: CorruptionClass,
    /// Claimed slots beyond the verified prefix (dropped by the prune).
    pub dropped_records: u64,
}

/// Itemized account of everything an open dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Key-chain blocks whose header was torn or corrupt (pairs dropped).
    pub chain_quarantined_blocks: u64,
    /// Pairs dropped from quarantined chain blocks.
    pub chain_quarantined_pairs: u64,
    /// Chain links cut because they pointed outside the pool.
    pub chain_truncated_links: u64,
    /// Valid chain pairs left out of the index because an earlier pair of
    /// the chain carries the same key (the earliest pair is the key's).
    pub chain_duplicate_keys: u64,
    /// Allocator blocks whose state word decoded as neither free nor
    /// allocated (conservatively treated as live; leak, not data loss).
    pub indeterminate_alloc_blocks: u64,
    /// Per-key history damage.
    pub keys: Vec<KeyQuarantine>,
}

impl QuarantineReport {
    /// Total quarantined items (blocks + pairs + cut links + duplicate
    /// pairs + keys).
    pub fn total(&self) -> u64 {
        self.chain_quarantined_blocks
            + self.chain_quarantined_pairs
            + self.chain_truncated_links
            + self.chain_duplicate_keys
            + self.keys.len() as u64
    }

    /// True when recovery found nothing to quarantine.
    pub fn is_empty(&self) -> bool {
        self.total() == 0 && self.indeterminate_alloc_blocks == 0
    }

    /// Human-readable rendering (printed by `mvkv-inspect stats`, uploaded
    /// as a CI artifact by the corruption-matrix job).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "quarantine report: {} item(s)", self.total());
        let _ = writeln!(out, "  chain blocks quarantined: {}", self.chain_quarantined_blocks);
        let _ = writeln!(out, "  chain pairs dropped:      {}", self.chain_quarantined_pairs);
        let _ = writeln!(out, "  chain links truncated:    {}", self.chain_truncated_links);
        let _ = writeln!(out, "  chain duplicate keys:     {}", self.chain_duplicate_keys);
        let _ = writeln!(out, "  alloc blocks indeterminate: {}", self.indeterminate_alloc_blocks);
        for k in &self.keys {
            let _ = writeln!(
                out,
                "  key {}: {:?}, {} record(s) dropped",
                k.key, k.class, k.dropped_records
            );
        }
        out
    }
}

/// Result of an on-demand integrity scrub ([`crate::PSkipList::scrub`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Keys visited.
    pub keys: u64,
    /// Published records whose CRC verified.
    pub valid_records: u64,
    /// Published records whose CRC failed.
    pub corrupt_records: u64,
    /// Keys with at least one corrupt or unreachable record.
    pub corrupt_keys: u64,
}

impl ScrubReport {
    pub fn is_clean(&self) -> bool {
        self.corrupt_records == 0 && self.corrupt_keys == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_and_rendering() {
        let mut r = QuarantineReport::default();
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        r.chain_quarantined_blocks = 1;
        r.chain_quarantined_pairs = 3;
        r.chain_duplicate_keys = 1;
        r.keys.push(KeyQuarantine {
            key: 7,
            class: CorruptionClass::ChecksumInvalid,
            dropped_records: 2,
        });
        assert!(!r.is_empty());
        assert_eq!(r.total(), 6);
        let text = r.render();
        assert!(text.contains("6 item(s)"));
        assert!(text.contains("key 7"));
        assert!(text.contains("ChecksumInvalid"));
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = RecoveryError::CorruptChainHeader { chain: "keys" };
        assert_eq!(e.to_string(), "keys chain header failed its integrity check");
        let e = RecoveryError::WorkerPanicked { phase: "scan" };
        assert!(e.to_string().contains("scan"));
    }
}
