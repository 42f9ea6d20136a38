//! Process-unique scratch directories that clean up after themselves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when the guard drops.
///
/// The name is `indra-{tag}-{pid}-{n}` with `n` drawn from a
/// process-wide counter, so two guards never share a directory even
/// when concurrent tests in one process use the same tag — naming by
/// pid (or pid plus seed) alone lets one run delete another's files.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory, clearing any leftover of the same name
    /// from an earlier process that reused this pid.
    ///
    /// # Errors
    ///
    /// The I/O error if the directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("indra-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gives_distinct_dirs_removed_on_drop() {
        let a = ScratchDir::new("scratch-test").unwrap();
        let b = ScratchDir::new("scratch-test").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "drop removes the tree");
        assert!(b.path().is_dir(), "a sibling guard is untouched");
    }
}
