//! Store snapshots and the WAL compaction policy.
//!
//! A WAL alone makes recovery time grow without bound: every reopen
//! replays the whole log. A *snapshot* bounds it — the full store state is
//! serialised to a sibling file (`<wal>.snap.<generation>`, written
//! temp-then-rename), the WAL is truncated down to a single
//! [`LogRecord::Snapshot`] marker, and recovery becomes *load snapshot +
//! replay the bounded tail*. Snapshot files reuse the WAL's CRC frame
//! format and record codec, and are bracketed by a marker frame at both
//! ends, so torn or frame-aligned-truncated snapshots are detectable and
//! recovery can fall back to the previous generation.
//!
//! Between the markers a snapshot holds the workflow specs, one `BeginRun`
//! per run, each run's rows as [`LogRecord::Batch`] frames of at most a
//! fixed number of events (so a frame's name and value tables are shared
//! by many rows), and one `FinishRun` per finished run. Snapshots written
//! before the binary codec hold one JSON frame per row; recovery replays
//! them unchanged.
//!
//! [`CompactionPolicy`] drives automatic snapshots: once the pending WAL
//! tail crosses either bound, the store compacts, so a crash at any moment
//! replays at most `max_frames` tail frames on reopen.

use std::path::{Path, PathBuf};

use prov_obs::{Counter, Histogram, Registry};

use crate::wal::{LogRecord, WalCursor, WalReader};

/// Bounds on the pending (post-snapshot) WAL tail; crossing either one
/// triggers an automatic snapshot-and-truncate cycle at the next append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact once the pending tail reaches this many bytes.
    pub max_wal_bytes: u64,
    /// Compact once the pending tail reaches this many frames — the bound
    /// on how many WAL frames any recovery has to replay.
    pub max_frames: u64,
}

impl CompactionPolicy {
    /// A policy bounded by frame count only.
    pub fn frames(max_frames: u64) -> Self {
        CompactionPolicy { max_wal_bytes: u64::MAX, max_frames: max_frames.max(1) }
    }

    /// A policy bounded by tail bytes only.
    pub fn bytes(max_wal_bytes: u64) -> Self {
        CompactionPolicy { max_wal_bytes: max_wal_bytes.max(1), max_frames: u64::MAX }
    }

    /// Whether a tail of `frames` frames / `bytes` bytes is due for
    /// compaction.
    pub fn due(&self, frames: u64, bytes: u64) -> bool {
        frames >= self.max_frames || bytes >= self.max_wal_bytes
    }
}

/// Snapshot lifecycle counters, shared by the owning store and adopted
/// into a metrics registry under stable `store.*` names.
#[derive(Debug, Clone)]
pub struct SnapshotMetrics {
    /// Snapshot generations successfully written and installed.
    pub snapshots: Counter,
    /// Size in bytes of each written snapshot file.
    pub snapshot_bytes: Histogram,
    /// Snapshot generations skipped at recovery because they were missing,
    /// torn, or failed their checksums (each skip falls back one
    /// generation).
    pub fallbacks: Counter,
}

impl Default for SnapshotMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        SnapshotMetrics {
            snapshots: Counter::standalone(),
            snapshot_bytes: Histogram::standalone(),
            fallbacks: Counter::standalone(),
        }
    }

    /// Adopts the metrics into `registry` (shared storage).
    pub fn register(&self, registry: &Registry) {
        registry.adopt_counter("store.snapshots", &self.snapshots);
        registry.adopt_histogram("store.snapshot_bytes", &self.snapshot_bytes);
        registry.adopt_counter("store.snapshot_fallbacks", &self.fallbacks);
    }
}

/// Appends `suffix` to the WAL's file name (sibling file, same directory).
fn sibling(wal: &Path, suffix: &str) -> PathBuf {
    let mut name = wal.file_name().map(|s| s.to_os_string()).unwrap_or_default();
    name.push(suffix);
    wal.with_file_name(name)
}

/// The file holding snapshot `generation` of the store at `wal`.
pub(crate) fn snapshot_path(wal: &Path, generation: u64) -> PathBuf {
    sibling(wal, &format!(".snap.{generation}"))
}

/// The scratch file snapshots are written to before their atomic rename.
pub(crate) fn tmp_path(wal: &Path) -> PathBuf {
    sibling(wal, ".snap.tmp")
}

/// Every snapshot generation present on disk for the store at `wal`, in
/// ascending order. The `.snap.tmp` scratch file never parses as a
/// generation, so an abandoned temp write is invisible here.
pub(crate) fn generations(wal: &Path) -> Vec<u64> {
    let parent = match wal.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let Some(stem) = wal.file_name().and_then(|s| s.to_str()) else {
        return Vec::new();
    };
    let prefix = format!("{stem}.snap.");
    let mut gens = Vec::new();
    if let Ok(entries) = std::fs::read_dir(parent) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Ok(g) = rest.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
    }
    gens.sort_unstable();
    gens
}

/// The snapshot bracket rule: a snapshot of generation `g` is whole when
/// its frame stream ends `clean`, and both its `first` record and its
/// `last` record after that one are the `Snapshot` marker of `g` (the
/// footer marker catches a snapshot truncated on a frame boundary, which a
/// CRC scan alone cannot).
fn bracketed(g: u64, clean: bool, first: Option<&LogRecord>, last: Option<&LogRecord>) -> bool {
    let marker = LogRecord::Snapshot { generation: g };
    clean && first == Some(&marker) && last == Some(&marker)
}

/// Reads a snapshot file back whole, validated by the bracket rule.
/// Returns `None` for anything invalid — recovery then falls back a
/// generation.
pub(crate) fn load(path: &Path, generation: u64) -> Option<Vec<LogRecord>> {
    let recovery = WalReader::read_all(path).ok()?;
    let records = recovery.records;
    let last = records.get(1..).and_then(<[LogRecord]>::last);
    bracketed(generation, recovery.tail.is_clean(), records.first(), last).then_some(records)
}

/// Whether the file at `path` is a whole snapshot of `generation` by the
/// same bracket rule recovery's `load` applies, checked with the streaming
/// cursor so a multi-GB snapshot is never held in memory.
pub fn valid_snapshot(path: &Path, generation: u64) -> bool {
    let Ok(mut cursor) = WalCursor::open(path) else { return false };
    let (mut first, mut last) = (None, None);
    loop {
        match cursor.next_record() {
            Ok(Some(record)) if first.is_none() => first = Some(record),
            Ok(Some(record)) => last = Some(record),
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    bracketed(generation, cursor.tail().is_clean(), first.as_ref(), last.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalWriter;
    use prov_model::RunId;

    #[test]
    fn policy_triggers_on_either_bound() {
        let p = CompactionPolicy { max_wal_bytes: 100, max_frames: 4 };
        assert!(!p.due(3, 99));
        assert!(p.due(4, 0));
        assert!(p.due(0, 100));
        assert!(CompactionPolicy::frames(2).due(2, 0));
        assert!(!CompactionPolicy::frames(2).due(1, u64::MAX - 1));
        assert!(CompactionPolicy::bytes(10).due(0, 10));
    }

    #[test]
    fn policy_floors_are_one() {
        // A zero bound would compact on every append forever.
        assert_eq!(CompactionPolicy::frames(0).max_frames, 1);
        assert_eq!(CompactionPolicy::bytes(0).max_wal_bytes, 1);
    }

    #[test]
    fn paths_are_siblings_and_tmp_never_parses() {
        let wal = Path::new("/data/store.wal");
        assert_eq!(snapshot_path(wal, 7), Path::new("/data/store.wal.snap.7"));
        assert_eq!(tmp_path(wal), Path::new("/data/store.wal.snap.tmp"));
    }

    fn tmp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("prov-store-snapshot-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        for p in generations(&path) {
            let _ = std::fs::remove_file(snapshot_path(&path, p));
        }
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn generations_scan_finds_only_numbered_snapshots() {
        let wal = tmp_wal("gens");
        for g in [3u64, 1, 10] {
            std::fs::write(snapshot_path(&wal, g), b"x").unwrap();
        }
        std::fs::write(tmp_path(&wal), b"x").unwrap();
        std::fs::write(sibling(&wal, ".snap.notanumber"), b"x").unwrap();
        assert_eq!(generations(&wal), vec![1, 3, 10]);
        let _ = std::fs::remove_file(tmp_path(&wal));
        let _ = std::fs::remove_file(sibling(&wal, ".snap.notanumber"));
    }

    #[test]
    fn load_rejects_missing_torn_unbracketed_and_wrong_generation() {
        let wal = tmp_wal("load");
        let snap = snapshot_path(&wal, 2);
        // The streaming check and the whole-file load agree on every case.
        let load = |path: &Path, generation| {
            let records = load(path, generation);
            assert_eq!(valid_snapshot(path, generation), records.is_some());
            records
        };
        assert!(load(&snap, 2).is_none()); // missing

        let mut w = WalWriter::open(&snap).unwrap();
        w.append(&LogRecord::Snapshot { generation: 2 }).unwrap();
        w.append(&LogRecord::FinishRun { run: RunId(0) }).unwrap();
        w.sync().unwrap();
        assert!(load(&snap, 2).is_none()); // no footer marker

        w.append(&LogRecord::Snapshot { generation: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(load(&snap, 2).unwrap().len(), 3); // valid
        assert!(load(&snap, 3).is_none()); // wrong generation

        // Frame-aligned truncation (drop the footer frame): the CRC scan is
        // clean, but the footer check rejects it.
        let full = std::fs::metadata(&snap).unwrap().len();
        let footer = crate::codec::encode(&LogRecord::Snapshot { generation: 2 }).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&snap)
            .unwrap()
            .set_len(full - (8 + footer as u64))
            .unwrap();
        assert!(load(&snap, 2).is_none());

        // A torn (non-aligned) truncation is also rejected.
        std::fs::OpenOptions::new().write(true).open(&snap).unwrap().set_len(full / 2).unwrap();
        assert!(load(&snap, 2).is_none());
    }
}
