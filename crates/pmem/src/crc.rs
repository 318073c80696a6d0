//! Hand-rolled CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected
//! 0x82F63B78) — the integrity code stored alongside every PM-resident
//! record. No external crates.
//!
//! CRC32C is the standard choice for storage checksums (iSCSI, ext4, Btrfs):
//! its error-detection spectrum covers the faults the media model injects —
//! single/multi bit flips, torn 64-byte lines, and zeroed regions. It is
//! also the one CRC with an instruction of its own: verify-on-read runs a
//! checksum on every lookup, so on x86_64 (SSE4.2 `crc32`) and aarch64
//! (`crc32cx`) the fold is eight bytes per instruction, detected at run
//! time. The compile-time table — one lookup per byte — is the fallback on
//! every other CPU and the oracle the tests hold the instruction to. Both
//! compute the same function, so stored checksums do not depend on which
//! one wrote them.

/// Lookup table for the reflected Castagnoli polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    const POLY: u32 = 0x82F6_3B78;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32C of `bytes` (init `!0`, final xor `!0` — the standard framing).
#[inline]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let (words, tail) = split(bytes);
    fold(words, tail)
}

/// `bytes` as little-endian words plus the fewer-than-eight bytes left over.
#[inline]
fn split(bytes: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    (chunks.map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))), tail)
}

/// CRC32C over a sequence of little-endian u64 words — the common case for
/// PM record headers and entry payloads, avoiding a scratch buffer.
#[inline]
pub fn crc32c_u64s(words: &[u64]) -> u32 {
    fold(words.iter().copied(), &[])
}

/// CRC32C of the little-endian bytes of `words` followed by `tail`.
#[inline]
fn fold(words: impl Iterator<Item = u64>, tail: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hw_available() {
        // SAFETY: the CPU feature `hw_fold` is compiled for was just detected.
        return unsafe { hw_fold(words, tail) };
    }
    table_fold(words, tail)
}

/// The portable path: one table lookup per byte.
fn table_fold(words: impl Iterator<Item = u64>, tail: &[u8]) -> u32 {
    let step = |state: u32, b: u8| (state >> 8) ^ TABLE[((state ^ b as u32) & 0xFF) as usize];
    let state = words.fold(!0u32, |state, w| w.to_le_bytes().into_iter().fold(state, step));
    !tail.iter().copied().fold(state, step)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn hw_available() -> bool {
    std::arch::is_x86_feature_detected!("sse4.2")
}

#[cfg(target_arch = "aarch64")]
#[inline]
fn hw_available() -> bool {
    std::arch::is_aarch64_feature_detected!("crc")
}

/// The CRC32C instruction: eight bytes per step, then the tail bytewise.
///
/// # Safety
/// The CPU must support the enabled target feature ([`hw_available`]).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
#[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
// Toolchains since 1.87 declare these intrinsics safe inside a function that
// enables their feature; the declared MSRV does not.
#[allow(unused_unsafe)]
unsafe fn hw_fold(words: impl Iterator<Item = u64>, tail: &[u8]) -> u32 {
    #[cfg(target_arch = "aarch64")]
    use std::arch::aarch64::{__crc32cb as step8, __crc32cd as step64};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{_mm_crc32_u64 as step64, _mm_crc32_u8 as step8};
    // The x86 word step carries its 32-bit state in a u64, aarch64's in a
    // u32: the `as _` casts pick whichever the intrinsic takes.
    // SAFETY: the caller guarantees the instruction exists; it reads only
    // its two register operands.
    let state = words.fold(!0u32, |state, w| unsafe { step64(state as _, w) as u32 });
    // SAFETY: as above.
    !tail.iter().fold(state, |state, &b| unsafe { step8(state, b) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A named implementation with the `crc32c` signature.
    type Path = (&'static str, fn(&[u8]) -> u32);

    /// Both implementations: the table always, the instruction where this
    /// CPU has it.
    fn paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("table", |bytes| {
            let (words, tail) = split(bytes);
            table_fold(words, tail)
        })];
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if hw_available() {
            paths.push(("hardware", |bytes| {
                let (words, tail) = split(bytes);
                // SAFETY: only registered when the feature was detected.
                unsafe { hw_fold(words, tail) }
            }));
        }
        paths
    }

    fn le_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix vectors for CRC32C, plus lengths that
        // leave a tail after the last whole word.
        let ascending: Vec<u8> = (0u8..=31).collect();
        let vectors: [(&[u8], u32); 7] = [
            (b"", 0),
            (b"a", 0xC1D0_4330),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
        ];
        for (name, crc) in paths() {
            for (input, expect) in vectors {
                assert_eq!(crc(input), expect, "{name} path on {input:?}");
            }
        }
        for (input, expect) in vectors {
            assert_eq!(crc32c(input), expect, "dispatched path on {input:?}");
        }
    }

    #[test]
    fn u64_helper_matches_byte_path() {
        let words = [0xDEAD_BEEF_u64, 42, u64::MAX, 0];
        assert_eq!(crc32c_u64s(&words), crc32c(&le_bytes(&words)));
        for (name, crc) in paths() {
            assert_eq!(crc(&le_bytes(&words)), crc32c_u64s(&words), "{name} path");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let words = [7u64, 70, 71];
        for (name, crc) in paths() {
            let base = crc(&le_bytes(&words));
            assert_eq!(base, crc32c_u64s(&words), "{name} path");
            for word in 0..words.len() {
                for bit in 0..64 {
                    let mut flipped = words;
                    flipped[word] ^= 1 << bit;
                    assert_ne!(crc(&le_bytes(&flipped)), base, "{name} missed flip w{word} b{bit}");
                }
            }
        }
    }

    #[test]
    fn zeroed_payload_is_distinguishable() {
        // A zeroed record must not look valid: crc of non-zero payload
        // differs from crc of zeros, and crc32c([0,0]) itself is non-zero,
        // so an all-zero (record, crc) pair never validates.
        assert_ne!(crc32c_u64s(&[0, 0]), 0);
        assert_ne!(crc32c_u64s(&[1, 10]), crc32c_u64s(&[0, 0]));
    }

    proptest! {
        /// Whatever path the dispatch picks computes the table's function, on
        /// byte slices of every length modulo 8 and on word slices.
        #[test]
        fn every_path_agrees_with_the_table(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..200),
            words in proptest::collection::vec(0u64..=u64::MAX, 0..24),
        ) {
            let paths = paths();
            let table = paths[0].1;
            for (name, crc) in &paths {
                prop_assert_eq!(crc(&bytes), table(&bytes), "{} path, {} bytes", name, bytes.len());
            }
            prop_assert_eq!(crc32c(&bytes), table(&bytes));
            prop_assert_eq!(crc32c_u64s(&words), table(&le_bytes(&words)));
            prop_assert_eq!(crc32c(&le_bytes(&words)), table(&le_bytes(&words)));
        }
    }
}
