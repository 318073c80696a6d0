//! The process-level surroundings of a run: where pool files live, how much
//! DRAM the store holds, and what the results file records about the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the whole process. The store's DRAM footprint is read
/// as a difference of this counter around a call that allocates nothing on
/// the harness side (see `dram_bytes_per_key`), so it repeats exactly.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator plus one relaxed add per call.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes currently allocated by this process.
pub fn live_heap_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Pins glibc malloc's mmap and trim thresholds at their initial values.
///
/// Left alone, glibc raises both the first time a large block is freed, and
/// from then on keeps freed memory instead of returning it. Which phase then
/// finds its memory already faulted in depended on what the harness itself had
/// allocated and freed before: the same reopen measured 0.29 s or 0.40 s by
/// whether one plan or two had been generated earlier in the process. Pinned,
/// every cycle faults its memory in afresh, as a real load or restart does.
/// A no-op where the allocator is not glibc's.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const INITIAL: i32 = 128 * 1024;
        // SAFETY: `mallopt` only stores two integers in the allocator's
        // parameters; it is called once, before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, INITIAL);
            mallopt(M_TRIM_THRESHOLD, INITIAL);
        }
    }
}

/// `<dir>/mvkv-benchmark-<pid>/`, removed on drop — on normal exit and on
/// a panic that unwinds through `main`.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates the run directory under `dir`. When `dir` has less than
    /// `need_bytes` free and `may_leave` allows it, falls back to the system
    /// temp dir and says so; the contract run (`one`) may not leave its
    /// checkout, so there the shortage is an error.
    pub fn create(dir: &Path, need_bytes: u64, may_leave: bool) -> Result<RunDir, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut base = dir.to_path_buf();
        if let Some(free) = free_bytes(dir) {
            if free < need_bytes {
                if !may_leave {
                    return Err(format!(
                        "{} has {free} bytes free, the largest pool needs {need_bytes}",
                        dir.display()
                    ));
                }
                base = std::env::temp_dir();
                eprintln!(
                    "note: {} has {free} bytes free (< {need_bytes}); pools go to {}",
                    dir.display(),
                    base.display()
                );
            }
        }
        let path = base.join(format!("mvkv-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Free bytes of the file system holding `dir`, from `df -Pk` (std has no
/// statvfs). `None` when `df` is missing or prints something unexpected:
/// the check is then skipped.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = std::process::Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let avail_kib: u64 = text.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()?;
    Some(avail_kib * 1024)
}

/// Directory of the running executable: inside the cargo target directory,
/// hence inside the checkout and ignored by git. The default for pools and
/// result files.
pub fn exe_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` of the nearest ancestor of the
/// current directory; `"unknown"` outside a git checkout (the driver's).
pub fn git_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else { return "unknown".into() };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
            if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
                return hash.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                for line in packed.lines() {
                    if let Some(hash) = line.strip_suffix(reference) {
                        return hash.trim().to_string();
                    }
                }
            }
            return "unknown".into();
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dir_is_removed_on_drop_and_on_panic() {
        let base = std::env::temp_dir().join(format!("mvkv-benchmark-test-{}", std::process::id()));
        let made = {
            let run = RunDir::create(&base, 1, true).unwrap();
            std::fs::write(run.file("a.pool"), b"x").unwrap();
            run.path().to_path_buf()
        };
        assert!(!made.exists());
        let base2 = base.clone();
        let panicked = std::panic::catch_unwind(move || {
            let run = RunDir::create(&base2, 1, true).unwrap();
            std::fs::write(run.file("b.pool"), b"x").unwrap();
            panic!("boom");
        });
        assert!(panicked.is_err());
        assert!(!made.exists(), "drop guard must also run while unwinding");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn free_space_shortage_is_an_error_when_leaving_is_forbidden() {
        let base = std::env::temp_dir().join(format!("mvkv-benchmark-full-{}", std::process::id()));
        if free_bytes(&std::env::temp_dir()).is_some() {
            assert!(RunDir::create(&base, u64::MAX, false).is_err());
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
