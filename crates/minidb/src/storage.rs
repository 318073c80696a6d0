//! The bytes behind a database: a file (the `DbReg` persistent mode) or a
//! plain memory vector (the `DbMem` in-memory mode). One type serves both
//! the page store (page `i` at byte `i * PAGE_SIZE`) and the write-ahead log.

use crate::{DbError, Result};
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Positional byte storage. All methods are callable concurrently.
pub(crate) enum Media {
    File(File),
    Mem(RwLock<Vec<u8>>),
}

impl Media {
    /// Creates (truncating) the file at `path`.
    pub(crate) fn create(path: &Path) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Media::File(file))
    }

    pub(crate) fn memory() -> Self {
        Media::Mem(RwLock::new(Vec::new()))
    }

    /// Fills `buf` from byte `off`; reading past the end is an error.
    pub(crate) fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<()> {
        match self {
            Media::File(f) => f.read_exact_at(buf, off)?,
            Media::Mem(m) => {
                let v = m.read();
                let bytes = v.get(off as usize..off as usize + buf.len());
                buf.copy_from_slice(bytes.ok_or(DbError::Corrupt("read past end of memory"))?);
            }
        }
        Ok(())
    }

    /// Writes `data` at byte `off`, growing the media (zero-filled) to reach it.
    pub(crate) fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        match self {
            Media::File(f) => f.write_all_at(data, off)?,
            Media::Mem(m) => {
                let mut v = m.write();
                let end = off as usize + data.len();
                if v.len() < end {
                    v.resize(end, 0);
                }
                v[off as usize..end].copy_from_slice(data);
            }
        }
        Ok(())
    }

    pub(crate) fn truncate(&self, len: u64) -> Result<()> {
        match self {
            Media::File(f) => f.set_len(len)?,
            Media::Mem(m) => m.write().truncate(len as usize),
        }
        Ok(())
    }

    /// Durability barrier (`fdatasync` for a file, nothing for memory).
    pub(crate) fn sync(&self) -> Result<()> {
        if let Media::File(f) = self {
            f.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageBuf, PAGE_SIZE};

    fn page_with(v: u64) -> PageBuf {
        let mut p = PageBuf::zeroed();
        p.put_u64(0, v);
        p
    }

    fn page_at(media: &Media, id: u64) -> Result<u64> {
        let mut r = PageBuf::zeroed();
        media.read_at(id * PAGE_SIZE as u64, r.as_bytes_mut())?;
        Ok(r.get_u64(0))
    }

    #[test]
    fn both_media_round_trip_pages_and_refuse_a_read_past_the_end() {
        let path = std::env::temp_dir().join(format!("minidb-media-{}.db", std::process::id()));
        for media in [Media::memory(), Media::create(&path).unwrap()] {
            media.write_at(0, page_with(111).as_bytes()).unwrap();
            media.write_at(2 * PAGE_SIZE as u64, page_with(333).as_bytes()).unwrap();
            media.sync().unwrap();
            assert_eq!((page_at(&media, 0).unwrap(), page_at(&media, 1).unwrap()), (111, 0));
            assert_eq!(page_at(&media, 2).unwrap(), 333);
            assert!(page_at(&media, 3).is_err(), "a read past the end");
        }
        // The file reopens with its pages.
        let file = Media::File(OpenOptions::new().read(true).write(true).open(&path).unwrap());
        assert_eq!((page_at(&file, 0).unwrap(), page_at(&file, 2).unwrap()), (111, 333));
        std::fs::remove_file(&path).unwrap();
    }
}
