//! Write-ahead log.
//!
//! Committed write transactions append one frame per dirty page followed by
//! a commit frame, then issue a single durability sync — the same structure
//! that lets SQLite's WAL mode batch writer I/O. Readers consult the WAL
//! index (page → newest committed frame) before falling back to the main
//! storage. A checkpoint folds all committed frames back into storage, syncs
//! it, and only then truncates the log.
//!
//! Frame layout: a 16-byte header `[page_id u64][kind u64]`; `kind == 1`
//! (page) is followed by a full page image, `kind == 2` (commit) ends a
//! transaction. On open, only frames covered by a commit record are
//! indexed; a torn tail is truncated.
//!
//! Replay validates *framing* (truncations and mangled headers drop the
//! tail at the last commit), not page *contents* — there are no per-frame
//! checksums, so silent bit-rot inside a page image is out of scope, as it
//! is for the memory-backed media this engine targets (`/dev/shm`).

use crate::page::{PageBuf, PAGE_SIZE};
use crate::storage::Media;
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const KIND_PAGE: u64 = 1;
const KIND_COMMIT: u64 = 2;
const FRAME_HDR: u64 = 16;

/// The write-ahead log plus its in-memory index of committed frames.
pub struct Wal {
    media: Media,
    /// Append position (writers are externally serialized).
    len: AtomicU64,
    /// page id → byte offset of the newest committed page image.
    /// Readers hold the read lock across the frame read so checkpoints
    /// (write lock) cannot truncate underneath them.
    index: RwLock<HashMap<u64, u64>>,
    /// Committed page frames since the last checkpoint.
    frames_since_checkpoint: AtomicU64,
}

impl Wal {
    fn new(media: Media) -> Self {
        Wal {
            media,
            len: AtomicU64::new(0),
            index: RwLock::new(HashMap::new()),
            frames_since_checkpoint: AtomicU64::new(0),
        }
    }

    /// Creates a fresh file-backed WAL (truncates any existing log).
    pub fn create_file<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(Wal::new(Media::create(path.as_ref())?))
    }

    /// Opens an existing WAL, replaying committed frames into the index and
    /// truncating any torn tail.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Self> {
        // Open-or-create without truncation: existing frames are replayed.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let file_len = file.metadata()?.len();
        let wal = Wal::new(Media::File(file));
        wal.replay(file_len)?;
        Ok(wal)
    }

    /// Creates an in-memory WAL (the `DbMem` mode).
    pub fn memory() -> Self {
        Wal::new(Media::memory())
    }

    fn replay(&self, file_len: u64) -> Result<()> {
        let mut off = 0u64;
        let mut committed_end = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut index = self.index.write();
        let mut hdr = [0u8; 16];
        let mut frames = 0u64;
        while off + FRAME_HDR <= file_len {
            self.media.read_at(off, &mut hdr)?;
            let page_id = u64::from_le_bytes(hdr[0..8].try_into().expect("sized"));
            let kind = u64::from_le_bytes(hdr[8..16].try_into().expect("sized"));
            match kind {
                KIND_PAGE if off + FRAME_HDR + PAGE_SIZE as u64 <= file_len => {
                    pending.push((page_id, off + FRAME_HDR));
                    off += FRAME_HDR + PAGE_SIZE as u64;
                }
                KIND_COMMIT => {
                    off += FRAME_HDR;
                    frames += pending.len() as u64;
                    for (page, frame_off) in pending.drain(..) {
                        index.insert(page, frame_off);
                    }
                    committed_end = off;
                }
                _ => break, // torn or garbage tail
            }
        }
        drop(index);
        self.media.truncate(committed_end)?;
        self.len.store(committed_end, Ordering::Release);
        self.frames_since_checkpoint.store(frames, Ordering::Release);
        Ok(())
    }

    /// Appends a committed transaction: one frame per dirty page plus a
    /// commit record, synced once, then published to the index. Callers
    /// hold the engine's writer lock.
    pub fn commit<'a>(&self, writes: impl Iterator<Item = (u64, &'a PageBuf)>) -> Result<()> {
        mvkv_obs::counter_inc!("mvkv_minidb_wal_commits_total");
        let mut off = self.len.load(Ordering::Acquire);
        let mut staged: Vec<(u64, u64)> = Vec::new();
        for (page_id, buf) in writes {
            let mut hdr = [0u8; 16];
            hdr[0..8].copy_from_slice(&page_id.to_le_bytes());
            hdr[8..16].copy_from_slice(&KIND_PAGE.to_le_bytes());
            self.media.write_at(off, &hdr)?;
            self.media.write_at(off + FRAME_HDR, buf.as_bytes().as_slice())?;
            staged.push((page_id, off + FRAME_HDR));
            off += FRAME_HDR + PAGE_SIZE as u64;
        }
        if staged.is_empty() {
            return Ok(());
        }
        let mut hdr = [0u8; 16];
        hdr[8..16].copy_from_slice(&KIND_COMMIT.to_le_bytes());
        self.media.write_at(off, &hdr)?;
        off += FRAME_HDR;
        // A file is synced at every commit; memory has nothing to sync.
        self.media.sync()?;
        // Only after durability do the frames become visible to readers.
        let mut index = self.index.write();
        self.frames_since_checkpoint.fetch_add(staged.len() as u64, Ordering::AcqRel);
        for (page, frame_off) in staged {
            index.insert(page, frame_off);
        }
        drop(index);
        self.len.store(off, Ordering::Release);
        Ok(())
    }

    /// Reads the newest committed image of `page_id` from the log, if any.
    pub fn read_page(&self, page_id: u64, buf: &mut PageBuf) -> Result<bool> {
        let index = self.index.read();
        match index.get(&page_id) {
            Some(&frame_off) => {
                self.media.read_at(frame_off, buf.as_bytes_mut().as_mut_slice())?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Committed page frames accumulated since the last checkpoint.
    pub fn frames_since_checkpoint(&self) -> u64 {
        self.frames_since_checkpoint.load(Ordering::Acquire)
    }

    /// Folds every committed frame into `apply` (storage write), makes the
    /// storage durable with `sync`, and only then truncates the log: a
    /// power failure at any point leaves every committed page in one of the
    /// two. Callers hold the writer lock; the index write lock excludes
    /// concurrent readers for the duration.
    pub fn checkpoint(
        &self,
        mut apply: impl FnMut(u64, &PageBuf) -> Result<()>,
        sync: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let mut index = self.index.write();
        let mut buf = PageBuf::zeroed();
        for (&page, &frame_off) in index.iter() {
            self.media.read_at(frame_off, buf.as_bytes_mut().as_mut_slice())?;
            apply(page, &buf)?;
        }
        sync()?;
        index.clear();
        self.media.truncate(0)?;
        self.len.store(0, Ordering::Release);
        self.frames_since_checkpoint.store(0, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(v: u64) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.put_u64(0, v);
        p
    }

    #[test]
    fn commit_publishes_pages() {
        let wal = Wal::memory();
        let a = page_with(10);
        let b = page_with(20);
        wal.commit([(3u64, &a), (7u64, &b)].into_iter()).unwrap();
        let mut r = PageBuf::zeroed();
        assert!(wal.read_page(3, &mut r).unwrap());
        assert_eq!(r.get_u64(0), 10);
        assert!(wal.read_page(7, &mut r).unwrap());
        assert_eq!(r.get_u64(0), 20);
        assert!(!wal.read_page(4, &mut r).unwrap());
        assert_eq!(wal.frames_since_checkpoint(), 2);
    }

    #[test]
    fn newer_commit_wins() {
        let wal = Wal::memory();
        wal.commit([(1u64, &page_with(1))].into_iter()).unwrap();
        wal.commit([(1u64, &page_with(2))].into_iter()).unwrap();
        let mut r = PageBuf::zeroed();
        assert!(wal.read_page(1, &mut r).unwrap());
        assert_eq!(r.get_u64(0), 2);
    }

    #[test]
    fn checkpoint_drains_into_apply() {
        let wal = Wal::memory();
        wal.commit([(1u64, &page_with(5)), (2u64, &page_with(6))].into_iter()).unwrap();
        let mut applied = std::collections::HashMap::new();
        wal.checkpoint(
            |page, buf| {
                applied.insert(page, buf.get_u64(0));
                Ok(())
            },
            || Ok(()),
        )
        .unwrap();
        assert_eq!(applied, [(1, 5), (2, 6)].into_iter().collect());
        let mut r = PageBuf::zeroed();
        assert!(!wal.read_page(1, &mut r).unwrap(), "index cleared");
        assert_eq!(wal.frames_since_checkpoint(), 0);
    }

    /// The storage is synced while the log still holds every frame: a
    /// power failure before the truncation replays them.
    #[test]
    fn checkpoint_syncs_the_storage_before_it_truncates_the_log() {
        let path = std::env::temp_dir().join(format!("minidb-ckpt-{}.wal", std::process::id()));
        let wal = Wal::create_file(&path).unwrap();
        wal.commit([(1u64, &page_with(5)), (2u64, &page_with(6))].into_iter()).unwrap();
        let logged = 2 * (FRAME_HDR + PAGE_SIZE as u64) + FRAME_HDR;
        let on_disk = || std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk(), logged);
        let mut synced_over = None;
        let sync = || {
            synced_over = Some(on_disk());
            Ok(())
        };
        wal.checkpoint(|_, _| Ok(()), sync).unwrap();
        assert_eq!(synced_over, Some(logged), "the log was cut before the storage sync");
        assert_eq!(on_disk(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_recovers_committed_and_drops_torn_tail() {
        let path = std::env::temp_dir().join(format!("minidb-wal-{}.wal", std::process::id()));
        {
            let wal = Wal::create_file(&path).unwrap();
            wal.commit([(1u64, &page_with(11))].into_iter()).unwrap();
            wal.commit([(2u64, &page_with(22))].into_iter()).unwrap();
            // Torn tail: a page frame with no commit record.
            let off = wal.len.load(Ordering::Acquire);
            let mut hdr = [0u8; 16];
            hdr[0..8].copy_from_slice(&9u64.to_le_bytes());
            hdr[8..16].copy_from_slice(&KIND_PAGE.to_le_bytes());
            wal.media.write_at(off, &hdr).unwrap();
            wal.media.write_at(off + 16, page_with(99).as_bytes().as_slice()).unwrap();
            wal.media.sync().unwrap();
        }
        {
            let wal = Wal::open_file(&path).unwrap();
            let mut r = PageBuf::zeroed();
            assert!(wal.read_page(1, &mut r).unwrap());
            assert_eq!(r.get_u64(0), 11);
            assert!(wal.read_page(2, &mut r).unwrap());
            assert_eq!(r.get_u64(0), 22);
            assert!(!wal.read_page(9, &mut r).unwrap(), "torn frame must be dropped");
            assert_eq!(wal.frames_since_checkpoint(), 2);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let wal = Wal::memory();
        wal.commit(std::iter::empty()).unwrap();
        assert_eq!(wal.len.load(Ordering::Acquire), 0);
    }
}
