//! Atomic single-file publication: write a temp sibling, fsync, rename.
//!
//! Shared by snapshots and checkpoints. Writes are atomic with respect to
//! readers: the document is written to a sibling temp file and `rename`d
//! over the destination, so a crash mid-write never corrupts an existing
//! file. A writer that crashes *before* the rename leaves its
//! `<name>.tmp-<pid>-<seq>` sibling behind; the next successful
//! [`write_atomic`] to the same path sweeps such stale temps (only files
//! matching the temp naming pattern for that destination, and never one
//! another in-process writer still has in flight).

use crate::snapshot::SnapshotError;
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Writes `bytes` (plus a trailing newline) to `path` atomically:
/// serialize to a unique temp sibling, fsync, then rename over `path`.
/// Readers either see the old complete document or the new complete
/// document, never a torn write.
///
/// # Errors
/// Returns [`SnapshotError::Io`] naming the offending path on any
/// filesystem failure (create, write, sync, rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = temp_sibling(path);
    in_flight_set().insert(tmp.clone());
    let result = (|| -> Result<(), SnapshotError> {
        {
            let mut file =
                std::fs::File::create(&tmp).map_err(|e| SnapshotError::io("create", &tmp, e))?;
            file.write_all(bytes)
                .map_err(|e| SnapshotError::io("write", &tmp, e))?;
            file.write_all(b"\n")
                .map_err(|e| SnapshotError::io("write", &tmp, e))?;
            file.sync_all()
                .map_err(|e| SnapshotError::io("fsync", &tmp, e))?;
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(SnapshotError::io("rename", path, e));
        }
        // The rename only becomes crash-durable once the directory entry
        // is on disk; without this a power loss can revert to the old
        // document even though the caller was told the new one landed.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        fsync_dir(dir).map_err(|e| SnapshotError::io("fsync-dir", dir, e))?;
        Ok(())
    })();
    in_flight_set().remove(&tmp);
    if result.is_ok() {
        sweep_stale_temps(path);
    }
    result
}

/// Flushes `dir`'s entries to disk, making renames, creates, and unlinks
/// inside it crash-durable. On non-Unix platforms (where a directory
/// cannot be opened as a file) this is a no-op — Windows metadata writes
/// are ordered by the filesystem instead.
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// A temp path next to the destination, so the final rename stays on one
/// filesystem (rename across mount points is not atomic — or possible).
/// The name carries the pid plus a process-wide sequence number: two
/// concurrent writers to one path must not share a temp file, or one
/// truncates the other mid-write and the rename publishes a partial
/// document.
fn temp_sibling(path: &Path) -> PathBuf {
    static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut name = dest_file_name(path);
    name.push_str(&format!(".tmp-{}-{seq}", std::process::id()));
    path.with_file_name(name)
}

fn dest_file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string())
}

/// Temp paths this process is currently writing. The sweep must skip
/// them: two in-process saves to the same path can overlap, and a
/// finishing save must not delete the other's half-written temp.
///
/// A writer that panicked while holding the lock poisons it, but each
/// critical section is one `insert`, `remove` or lookup, so the set is
/// whole either way and the guard is taken back from the poison.
fn in_flight_set() -> MutexGuard<'static, HashSet<PathBuf>> {
    static IN_FLIGHT: std::sync::OnceLock<Mutex<HashSet<PathBuf>>> = std::sync::OnceLock::new();
    IN_FLIGHT
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// True when `candidate` is `<dest-name>.tmp-<digits>-<digits>` — the
/// exact shape [`temp_sibling`] produces for this destination. Anything
/// else (the destination itself, other files' temps, unrelated files) is
/// left alone.
fn is_stale_temp_name(candidate: &str, dest_name: &str) -> bool {
    let Some(rest) = candidate
        .strip_prefix(dest_name)
        .and_then(|r| r.strip_prefix(".tmp-"))
    else {
        return false;
    };
    let mut parts = rest.splitn(2, '-');
    let (Some(pid), Some(seq)) = (parts.next(), parts.next()) else {
        return false;
    };
    !pid.is_empty()
        && !seq.is_empty()
        && pid.bytes().all(|b| b.is_ascii_digit())
        && seq.bytes().all(|b| b.is_ascii_digit())
}

/// Removes temp siblings left behind by writers that crashed between
/// `File::create` and `rename`. Best-effort: sweep failures never fail
/// the save that triggered them.
fn sweep_stale_temps(path: &Path) {
    let Some(dir) = path.parent() else { return };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let dest_name = dest_file_name(path);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let candidates: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| is_stale_temp_name(&e.file_name().to_string_lossy(), &dest_name))
        .map(|e| e.path())
        .collect();
    if candidates.is_empty() {
        return;
    }
    // Check liveness under the lock *after* listing: a temp registered
    // while we iterated is then guaranteed visible here, so a concurrent
    // in-process save can never lose its half-written file.
    let live = in_flight_set();
    for path in candidates {
        if !live.contains(&path) {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_temp_name_matching() {
        assert!(is_stale_temp_name("a.snap.tmp-12-0", "a.snap"));
        assert!(is_stale_temp_name("a.snap.tmp-12-345", "a.snap"));
        // The destination itself and lookalikes are never candidates.
        assert!(!is_stale_temp_name("a.snap", "a.snap"));
        assert!(!is_stale_temp_name("a.snap.tmp-", "a.snap"));
        assert!(!is_stale_temp_name("a.snap.tmp-12", "a.snap"));
        assert!(!is_stale_temp_name("a.snap.tmp-12-", "a.snap"));
        assert!(!is_stale_temp_name("a.snap.tmp-x-1", "a.snap"));
        assert!(!is_stale_temp_name("a.snap.tmp-1-2-3", "a.snap"));
        assert!(!is_stale_temp_name("b.snap.tmp-1-2", "a.snap"));
    }

    #[test]
    fn write_atomic_replaces_and_sweeps() {
        let dir = std::env::temp_dir().join("rl-store-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        // Simulate two crashed writers (a dead pid and this pid).
        std::fs::write(dir.join("doc.json.tmp-99999-0"), "partial").unwrap();
        std::fs::write(dir.join("doc.json.tmp-1234-7"), "partial").unwrap();
        // Non-matching siblings must survive the sweep.
        std::fs::write(dir.join("other.json.tmp-1-1"), "keep").unwrap();
        std::fs::write(dir.join("doc.json.backup"), "keep").unwrap();
        write_atomic(&path, b"{\"v\":1}").unwrap();
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}\n");
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(
            entries,
            vec!["doc.json", "doc.json.backup", "other.json.tmp-1-1"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_names_the_path() {
        let missing = Path::new("/nonexistent-rl-store-dir/doc.json");
        let err = write_atomic(missing, b"x").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("/nonexistent-rl-store-dir/doc.json"),
            "error must name the offending path: {msg}"
        );
    }
}
