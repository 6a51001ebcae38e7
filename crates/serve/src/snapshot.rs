//! Versioned on-disk cache snapshots (`--cache-snapshot`).
//!
//! A gracefully drained daemon writes every complete cached answer —
//! fingerprint triple plus the exact [`Answer`] document it is served
//! with — to a single JSON document, atomically (sibling temp file,
//! then `rename`, shared with the interval metrics writer). A
//! restarting daemon loads the file before accepting connections and
//! re-routes each entry through its *own* consistent-hash ring, so a
//! snapshot written by an N-shard fleet restores correctly into an
//! M-shard one; restored entries serve exact hits byte-identical to
//! the predecessor's answers.
//!
//! The document is gated by [`SNAPSHOT_SCHEMA`]: a missing file is a
//! cold start, but a present file with the wrong schema (or unparsable
//! content) is a configuration error and refuses the start — silently
//! serving cold behind a stale-format snapshot would masquerade as a
//! warm restart.

use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};

use crate::cache::Answer;

/// Schema tag of the snapshot document. Bump on any layout change;
/// [`load`] rejects every other value.
pub const SNAPSHOT_SCHEMA: &str = "netdag-cache-snapshot/2";

/// One persisted cache entry: the full fingerprint triple (so restore
/// can re-rank exact/warm matches and re-route by structural hash) plus
/// the exact answer document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SnapshotEntry {
    /// Canonical fingerprint hash.
    pub full: u64,
    /// Structure-only hash (routes the entry onto the restoring ring).
    pub structural: u64,
    /// Declaration-order hash (gates verbatim reuse).
    pub declared: u64,
    /// Cached makespan, µs (the warm-start bound; 0 for mode answers).
    pub makespan_us: u64,
    /// The exact document served on an exact hit.
    pub answer: Answer,
}

/// The whole on-disk document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    /// Always [`SNAPSHOT_SCHEMA`].
    pub schema: String,
    /// Cache entries of every shard, each shard's least- to
    /// most-recently used, so a restore replays recency in insertion
    /// order.
    pub entries: Vec<SnapshotEntry>,
}

impl CacheSnapshot {
    /// An empty snapshot with the current schema tag.
    pub fn new() -> CacheSnapshot {
        CacheSnapshot {
            schema: SNAPSHOT_SCHEMA.to_owned(),
            entries: Vec::new(),
        }
    }
}

impl Default for CacheSnapshot {
    fn default() -> Self {
        CacheSnapshot::new()
    }
}

/// Loads a snapshot. `Ok(None)` when the file does not exist (a cold
/// start); an unreadable, unparsable, or wrong-schema file is an error.
pub fn load(path: &Path) -> std::io::Result<Option<CacheSnapshot>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let snap: CacheSnapshot = serde_json::from_str(&text).map_err(|e| {
        Error::new(
            ErrorKind::InvalidData,
            format!("{}: invalid cache snapshot: {e}", path.display()),
        )
    })?;
    if snap.schema != SNAPSHOT_SCHEMA {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!(
                "{}: unsupported cache snapshot schema {:?} (expected {SNAPSHOT_SCHEMA:?})",
                path.display(),
                snap.schema
            ),
        ));
    }
    Ok(Some(snap))
}

/// Writes a snapshot atomically: the document lands under a sibling
/// `.tmp` name and is moved into place with `rename`, so a concurrent
/// reader (or a crash mid-write) never observes a torn file.
pub fn store(path: &Path, snap: &CacheSnapshot) -> std::io::Result<()> {
    let text = serde_json::to_string(snap)
        .map_err(|e| Error::new(ErrorKind::InvalidData, format!("encode snapshot: {e}")))?;
    write_atomic(path, &text)
}

/// Writes `text` to `path` atomically, the way [`store`] does; the
/// interval metrics writer shares it.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_is_a_cold_start() {
        let path = std::env::temp_dir().join(format!(
            "netdag_snapshot_absent_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        assert!(load(&path).expect("cold start").is_none());
    }

    #[test]
    fn roundtrip_and_schema_gate() {
        let path = std::env::temp_dir().join(format!(
            "netdag_snapshot_roundtrip_{}.json",
            std::process::id()
        ));
        let snap = CacheSnapshot::new();
        store(&path, &snap).expect("store");
        assert_eq!(load(&path).expect("load").expect("present"), snap);

        std::fs::write(
            &path,
            r#"{"schema":"netdag-cache-snapshot/0","entries":[],"mode_entries":[]}"#,
        )
        .expect("write stale");
        let err = load(&path).expect_err("stale schema must refuse");
        assert_eq!(err.kind(), ErrorKind::InvalidData);

        std::fs::write(&path, "not json").expect("write garbage");
        assert!(load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
