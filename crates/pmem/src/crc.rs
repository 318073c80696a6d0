//! Hand-rolled CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected
//! 0x82F63B78) — the integrity code stored alongside every PM-resident
//! record, always over whole little-endian `u64` words. No external crates.
//!
//! CRC32C is the standard choice for storage checksums (iSCSI, ext4, Btrfs):
//! its error-detection spectrum covers the faults the media model injects —
//! single/multi bit flips, torn 64-byte lines, and zeroed regions. It is
//! also the one CRC with an instruction of its own, and verify-on-read runs
//! a checksum on every lookup, so the build compiles the instruction in:
//! the repository's `.cargo/config.toml` enables SSE4.2 `crc32` on x86_64
//! and `crc32cx` on aarch64, and every call site inlines the fold, eight
//! bytes per instruction, with no runtime detection. A build without the
//! feature (an environment `RUSTFLAGS`, such as the loom build's, replaces
//! the config's flags) and Miri fold through the compile-time table, one
//! lookup per byte, which is also the tests' oracle.
//! Both compute the same function, so stored checksums do not depend on
//! which build wrote them.

/// Lookup table for the reflected Castagnoli polynomial.
const TABLE: [u32; 256] = {
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
};

/// CRC32C of the little-endian bytes of `words` (init `!0`, final xor `!0`
/// — the standard framing), with the CRC32C instruction the build enables:
/// eight bytes per step, inlined at every call site.
#[cfg(any(
    all(target_arch = "x86_64", target_feature = "sse4.2", not(miri)),
    all(target_arch = "aarch64", target_feature = "crc", not(miri))
))]
#[inline]
pub fn crc32c_u64s(words: &[u64]) -> u32 {
    #[cfg(target_arch = "aarch64")]
    use std::arch::aarch64::__crc32cd as step;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::_mm_crc32_u64 as step;
    // The x86 step carries its 32-bit state in a u64, aarch64's in a u32:
    // the `as _` casts pick whichever the intrinsic takes.
    // SAFETY: compiled only where the build enables the instruction's target
    // feature (the `cfg` above), which every CPU the build targets has; it
    // reads only its two register operands.
    !words.iter().fold(!0u32, |state, &w| unsafe { step(state as _, w) as u32 })
}

/// CRC32C of the little-endian bytes of `words`, where the build has no
/// CRC32C instruction (or runs under Miri): the table, bytewise.
#[cfg(not(any(
    all(target_arch = "x86_64", target_feature = "sse4.2", not(miri)),
    all(target_arch = "aarch64", target_feature = "crc", not(miri))
)))]
#[inline]
pub fn crc32c_u64s(words: &[u64]) -> u32 {
    table_fold(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// The portable path, one table lookup per byte: the fallback above and
/// the tests' bytewise oracle.
#[cfg_attr(
    any(
        all(target_arch = "x86_64", target_feature = "sse4.2", not(miri)),
        all(target_arch = "aarch64", target_feature = "crc", not(miri))
    ),
    allow(dead_code)
)]
fn table_fold(bytes: impl IntoIterator<Item = u8>) -> u32 {
    !bytes.into_iter().fold(!0, |state, b| (state >> 8) ^ TABLE[usize::from(state as u8 ^ b)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The table's function of `words`' bytes, the oracle of the compiled
    /// path (the instruction wherever the build enables it).
    fn table(words: &[u64]) -> u32 {
        table_fold(words.iter().flat_map(|w| w.to_le_bytes()))
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix vectors for CRC32C, plus two classic
        // strings. The table checks every one bytewise; the four of whole
        // words check the compiled path too, word by word.
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
        let mut whole = 0;
        for (input, expect) in vectors {
            assert_eq!(table_fold(input.iter().copied()), expect, "table on {input:?}");
            if input.len() % 8 == 0 {
                let words =
                    input.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()));
                assert_eq!(crc32c_u64s(&words.collect::<Vec<_>>()), expect, "{input:?}");
                whole += 1;
            }
        }
        assert_eq!(whole, 4);
    }

    #[test]
    fn detects_single_bit_flips() {
        let words = [7u64, 70, 71];
        let base = crc32c_u64s(&words);
        assert_eq!(base, table(&words));
        for word in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words;
                flipped[word] ^= 1 << bit;
                assert_ne!(crc32c_u64s(&flipped), base, "missed flip w{word} b{bit}");
                assert_ne!(table(&flipped), base, "table missed flip w{word} b{bit}");
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
        /// The compiled path computes the table's bytewise function.
        #[test]
        fn the_compiled_path_agrees_with_the_table(
            words in proptest::collection::vec(0u64..=u64::MAX, 0..24),
        ) {
            prop_assert_eq!(crc32c_u64s(&words), table(&words), "{} words", words.len());
        }
    }
}
