//! Snapshot export/import — serialized interchange with external storage.
//!
//! The paper's §I contrast is that conventional workflows persist a
//! dictionary by "writing the key-value store in a serialized form to an
//! external storage repository". mvkv doesn't need that for durability (the
//! pool *is* the durable form), but serialized snapshots remain useful for
//! transport: shipping a snapshot to another machine, archiving to object
//! storage, or seeding a different store implementation.
//!
//! Format (`MVSN` v1, little-endian):
//!
//! ```text
//! [magic u64][format u64][snapshot version u64][pair count u64]
//! [key u64, value u64] × count
//! [fnv1a-64 checksum over everything above]
//! ```

use crate::api::StoreSession;
use crate::Pair;
use std::io::{Read, Write};

const MAGIC: u64 = 0x4D56_534E_0000_0001; // "MVSN" v1

/// Errors from snapshot (de)serialization.
#[derive(Debug)]
pub enum ExportError {
    Io(std::io::Error),
    /// Not an mvkv snapshot stream, or an unsupported format version.
    BadHeader,
    /// Checksum mismatch: the stream is corrupt or truncated.
    Corrupt,
    /// Keys out of order or duplicated — not a valid snapshot.
    NotASnapshot,
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            ExportError::BadHeader => write!(f, "not an mvkv snapshot stream"),
            ExportError::Corrupt => write!(f, "snapshot stream corrupt (checksum mismatch)"),
            ExportError::NotASnapshot => write!(f, "pairs are not sorted/unique by key"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<std::io::Error> for ExportError {
    fn from(e: std::io::Error) -> Self {
        ExportError::Io(e)
    }
}

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn put(w: &mut impl Write, hash: &mut Fnv1a, word: u64) -> std::io::Result<()> {
    let bytes = word.to_le_bytes();
    hash.update(&bytes);
    w.write_all(&bytes)
}

fn get(r: &mut impl Read, hash: &mut Fnv1a) -> std::io::Result<u64> {
    let mut bytes = [0u8; 8];
    r.read_exact(&mut bytes)?;
    hash.update(&bytes);
    Ok(u64::from_le_bytes(bytes))
}

/// Serializes `pairs` (a snapshot taken at `version`) into `w`.
pub fn write_snapshot(
    w: &mut impl Write,
    version: u64,
    pairs: &[Pair],
) -> Result<(), ExportError> {
    if !pairs.windows(2).all(|p| p[0].0 < p[1].0) {
        return Err(ExportError::NotASnapshot);
    }
    let mut hash = Fnv1a::new();
    put(w, &mut hash, MAGIC)?;
    put(w, &mut hash, version)?;
    put(w, &mut hash, pairs.len() as u64)?;
    for &(key, value) in pairs {
        put(w, &mut hash, key)?;
        put(w, &mut hash, value)?;
    }
    w.write_all(&hash.0.to_le_bytes())?;
    Ok(())
}

/// Deserializes a snapshot stream; returns `(version, pairs)`.
pub fn read_snapshot(r: &mut impl Read) -> Result<(u64, Vec<Pair>), ExportError> {
    let mut hash = Fnv1a::new();
    if get(r, &mut hash)? != MAGIC {
        return Err(ExportError::BadHeader);
    }
    let version = get(r, &mut hash)?;
    let count = get(r, &mut hash)?;
    // Guard absurd counts before allocating (corrupt length fields).
    if count > (1 << 40) {
        return Err(ExportError::Corrupt);
    }
    let mut pairs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = get(r, &mut hash)?;
        let value = get(r, &mut hash)?;
        pairs.push((key, value));
    }
    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != hash.0 {
        return Err(ExportError::Corrupt);
    }
    if !pairs.windows(2).all(|p| p[0].0 < p[1].0) {
        return Err(ExportError::NotASnapshot);
    }
    Ok((version, pairs))
}

/// Extracts snapshot `version` from a session and serializes it.
pub fn export_snapshot<S: StoreSession>(
    session: &S,
    version: u64,
    w: &mut impl Write,
) -> Result<usize, ExportError> {
    let pairs = session.extract_snapshot(version);
    let count = pairs.len();
    write_snapshot(w, version, &pairs)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::VersionedStore;
    use crate::ESkipList;

    #[test]
    fn roundtrip_through_bytes() {
        let pairs: Vec<Pair> = (0..1000u64).map(|i| (i * 3, i + 7)).collect();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 42, &pairs).unwrap();
        let (version, decoded) = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(version, 42);
        assert_eq!(decoded, pairs);
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &[]).unwrap();
        let (version, decoded) = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(version, 0);
        assert!(decoded.is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let pairs: Vec<Pair> = (0..100u64).map(|i| (i, i)).collect();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 1, &pairs).unwrap();
        // Flip one payload byte.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        match read_snapshot(&mut buf.as_slice()) {
            Err(ExportError::Corrupt) | Err(ExportError::NotASnapshot) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let pairs: Vec<Pair> = (0..100u64).map(|i| (i, i)).collect();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 1, &pairs).unwrap();
        buf.truncate(buf.len() - 20);
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn garbage_header_is_rejected() {
        let garbage = vec![0xABu8; 64];
        match read_snapshot(&mut garbage.as_slice()) {
            Err(ExportError::BadHeader) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_pairs_are_rejected_on_write() {
        let mut buf = Vec::new();
        match write_snapshot(&mut buf, 1, &[(5, 1), (3, 1)]) {
            Err(ExportError::NotASnapshot) => {}
            other => panic!("expected NotASnapshot, got {other:?}"),
        }
    }

    #[test]
    fn exported_bytes_decode_to_the_extracted_snapshot() {
        let src = ESkipList::new();
        {
            let s = src.session();
            for i in 0..500u64 {
                s.insert(i, i * 11);
            }
            s.remove(250);
        }
        let cut = src.tag();
        let mut buf = Vec::new();
        let exported = export_snapshot(&src.session(), cut, &mut buf).unwrap();
        assert_eq!(exported, 499);

        let (version, pairs) = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(version, cut);
        assert_eq!(pairs, src.session().extract_snapshot(cut));
    }
}
