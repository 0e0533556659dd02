//! Store snapshots.
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
//! [`LogRecord::Snapshot`]: crate::LogRecord::Snapshot
//! [`LogRecord::Batch`]: crate::LogRecord::Batch
//!
//! Nothing snapshots on its own: `TraceStore::snapshot` runs when a
//! `tprov serve` daemon drains and when a follower's bootstrap finds no
//! valid snapshot to ship, and a caller that wants bounded replay calls it
//! as it records.

use std::path::{Path, PathBuf};

use prov_obs::{Counter, Histogram, Registry};

use crate::codec::Stage;
use crate::wal::WalCursor;

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

/// Streams the snapshot file at `path` one staged frame at a time through
/// `apply`, and returns whether it is a whole snapshot of `generation` by
/// the bracket rule: its frame stream ends clean, and both its first frame
/// and its last frame after that one are the `Snapshot` marker of
/// `generation` (the footer marker catches a snapshot truncated on a frame
/// boundary, which a CRC scan alone cannot). A file that does not open
/// with that marker stops before `apply` sees anything; a caller applying
/// into a store drops what it applied when the answer is `false`.
pub(crate) fn stream(
    path: &Path,
    generation: u64,
    mut apply: impl FnMut(&mut Stage, &[u8]),
) -> bool {
    let Ok(mut cursor) = WalCursor::open(path) else { return false };
    let mut stage = Stage::default();
    let (mut frames, mut last) = (0u64, None);
    loop {
        match cursor.next_staged(&mut stage) {
            Ok(true) => {}
            Ok(false) => break,
            Err(_) => return false,
        }
        last = stage.marker();
        if frames == 0 && last != Some(generation) {
            return false;
        }
        frames += 1;
        apply(&mut stage, cursor.payload());
    }
    cursor.tail().is_clean() && frames > 1 && last == Some(generation)
}

/// Whether the file at `path` is a whole snapshot of `generation` by the
/// bracket rule recovery applies — a clean frame stream whose first frame,
/// and last frame after that, are the generation's marker — in one
/// frame's worth of memory however large the snapshot.
pub fn valid_snapshot(path: &Path, generation: u64) -> bool {
    stream(path, generation, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{LogRecord, WalWriter};
    use prov_model::RunId;

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
        // The streaming check and the load agree on every case; a whole
        // snapshot answers how many frames it streamed.
        let load = |path: &Path, generation| {
            let mut frames = 0;
            let whole = stream(path, generation, |_, _| frames += 1);
            assert_eq!(valid_snapshot(path, generation), whole);
            whole.then_some(frames)
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
        assert_eq!(load(&snap, 2), Some(3)); // valid
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
