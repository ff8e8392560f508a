//! Helpers shared by the integration tests.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A path in the system temp directory that no other test (in this
/// process or another) is handed, removed again on drop. Tests run on
/// parallel threads of one process, so a name built from the process id
/// alone lets one test delete or truncate another's file.
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path ending in `{tag}.{ext}`; nothing is created.
    pub fn new(tag: &str, ext: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("pfcim_test_{}_{n}_{tag}.{ext}", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }

    /// The path as a command-line argument.
    pub fn arg(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}
