//! Atomic final-artifact writes.
//!
//! A reader (or a crash mid-write) must never observe a torn trace,
//! sidecar, or benchmark file: every *final* artifact in the workspace is
//! written to a temporary file in the target directory, synced, and then
//! renamed into place. Rename within one directory is atomic on every
//! platform we build on, so readers see either the old complete file or
//! the new complete file — never a prefix.
//!
//! The `atomic-artifacts` lint rule (eval-lint) flags direct
//! `std::fs::write` / `File::create` calls on artifacts outside this
//! helper.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The temporary sibling `path` is staged at: `<file-name>.tmp` in the
/// same directory (same filesystem, so the rename cannot cross devices).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` atomically: stage to `<path>.tmp` in the same
/// directory, sync, then rename over `path`.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the staging
/// file. On error the final `path` is untouched (a stale `.tmp` may
/// remain; the next successful write replaces it).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = staging_path(path);
    // lint:allow(atomic-artifacts): this is the staging write the helper exists for
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Creates the parent directory of an output `path` (recursively) so
/// output-path problems surface when flags are parsed, not after hours of
/// chip work. A bare file name (no parent component) is fine as-is.
///
/// # Errors
///
/// Any I/O error from `create_dir_all`.
pub fn ensure_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eval-trace-artifact-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn write_atomic_replaces_the_target_and_removes_the_staging_file() {
        let dir = temp_dir("replace");
        let path = dir.join("out.json");
        write_atomic(&path, b"first").expect("writes");
        assert_eq!(std::fs::read(&path).expect("readable"), b"first");
        write_atomic(&path, b"second, longer payload").expect("overwrites");
        assert_eq!(
            std::fs::read(&path).expect("readable"),
            b"second, longer payload"
        );
        assert!(!staging_path(&path).exists(), "staging file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_fails_cleanly_on_a_missing_directory() {
        let dir = temp_dir("missing");
        let path = dir.join("no_such_subdir").join("out.json");
        assert!(write_atomic(&path, b"x").is_err());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ensure_parent_dir_creates_missing_directories() {
        let dir = temp_dir("parents");
        let path = dir.join("a").join("b").join("out.jsonl");
        ensure_parent_dir(&path).expect("creates");
        assert!(path.parent().expect("has parent").is_dir());
        // Bare file names and existing parents are no-ops.
        ensure_parent_dir(Path::new("bare.json")).expect("no-op");
        ensure_parent_dir(&path).expect("idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }
}
