//! Hermetic scratch space: every invocation, and every state a workload
//! builds, gets a directory nobody else names.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory unique to this process, instant and call, removed with
/// everything in it when the value drops.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    /// Creates `<root>/<pid>-<nanos>-<counter>`.
    pub fn new(root: &Path) -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{nanos}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// A fresh subdirectory with the same uniqueness and lifetime rules.
    pub fn sub(&self) -> Result<Scratch, String> {
        Scratch::new(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/scratch-test");
        let a = Scratch::new(&root).unwrap();
        let b = Scratch::new(&root).unwrap();
        assert_ne!(a.path(), b.path());
        let inner = a.sub().unwrap();
        std::fs::write(inner.file("x"), b"x").unwrap();
        let (pa, pi) = (a.path().to_path_buf(), inner.path().to_path_buf());
        drop(inner);
        assert!(!pi.exists() && pa.exists());
        drop(a);
        assert!(!pa.exists());
        drop(b);
        let _ = std::fs::remove_dir(&root);
    }
}
