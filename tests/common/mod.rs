//! Helpers shared by the integration tests that write to disk.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};

/// A per-case scratch directory under the system temp directory, named
/// `cdas-<suite>-<pid>-<name>` so cases may run in parallel. It is wiped when made and
/// removed when dropped, so a case leaves nothing behind, also when it fails.
pub struct TempDir(PathBuf);

impl TempDir {
    /// The directory for case `name` of `suite`, wiped; it is not created.
    pub fn new(suite: &str, name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cdas-{suite}-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TempDir {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
