//! Facts about a store's files, read without opening the store: the
//! offline integrity sweep behind `tprov wal verify <db>`, and the CRC-32
//! of a WAL prefix.
//!
//! Every frame is CRC-checked *and* staged through the streaming
//! [`WalCursor`] — the parser recovery replays with, so the sweep and a
//! reopen agree on which payloads are clean — and a multi-GB log verifies
//! in one frame's worth of memory; every snapshot file beside the WAL is
//! judged by the same bracket rule recovery applies ([`valid_snapshot`]).

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::codec::Stage;
use crate::crc::Crc32;
use crate::snapshot::{self, valid_snapshot};
use crate::wal::{TailState, WalCursor, WalError};

/// The verdict on one snapshot file.
#[derive(Debug, Clone)]
pub struct SnapshotVerdict {
    /// The snapshot file.
    pub path: PathBuf,
    /// Generation parsed from the file name.
    pub generation: u64,
    /// Clean frame stream bracketed by the right markers?
    pub valid: bool,
}

/// The result of a full WAL + snapshot sweep.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Frames that scanned (CRC + decode) cleanly.
    pub wal_frames: u64,
    /// Bytes covered by those frames.
    pub wal_bytes: u64,
    /// What the sweep found past the clean prefix.
    pub tail: TailState,
    /// The WAL's lineage: its leading snapshot-marker generation, or 0
    /// for a marker-less (self-contained) log.
    pub generation: u64,
    /// When the WAL leads with a marker: is that generation's snapshot
    /// file present and valid? (`None` for marker-less logs.)
    pub marker_backed: Option<bool>,
    /// Every snapshot file found beside the WAL.
    pub snapshots: Vec<SnapshotVerdict>,
}

impl VerifyReport {
    /// Whether the store is undamaged. A torn tail does *not* fail
    /// verification — it is an interrupted write that recovery truncates,
    /// not corruption — but a corrupt frame, an invalid snapshot file, or
    /// a leading marker whose snapshot is unusable does.
    pub fn healthy(&self) -> bool {
        !matches!(self.tail, TailState::CorruptFrame { .. })
            && self.marker_backed != Some(false)
            && self.snapshots.iter().all(|s| s.valid)
    }
}

/// Sweeps the WAL at `db` and every snapshot file beside it. A missing
/// WAL file verifies as an empty clean log (a store never opened is not a
/// damaged store).
pub fn verify_store(db: &Path) -> Result<VerifyReport, WalError> {
    let mut wal_frames = 0u64;
    let mut tail = TailState::Clean;
    let mut wal_bytes = 0u64;
    let mut marker = None;
    match WalCursor::open(db) {
        Ok(mut cursor) => {
            let mut stage = Stage::default();
            while cursor.next_staged(&mut stage)? {
                if wal_frames == 0 {
                    marker = stage.marker();
                }
                wal_frames += 1;
            }
            tail = cursor.tail();
            wal_bytes = cursor.offset();
        }
        Err(WalError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    let snapshots: Vec<SnapshotVerdict> = snapshot::generations(db)
        .into_iter()
        .map(|generation| {
            let path = snapshot::snapshot_path(db, generation);
            let valid = valid_snapshot(&path, generation);
            SnapshotVerdict { path, generation, valid }
        })
        .collect();
    let marker_backed = marker.map(|g| snapshots.iter().any(|s| s.generation == g && s.valid));

    Ok(VerifyReport {
        wal_frames,
        wal_bytes,
        tail,
        generation: marker.unwrap_or(0),
        marker_backed,
        snapshots,
    })
}

/// CRC-32 of the first `len` bytes of `path`, streamed in 64 KiB reads.
pub fn prefix_crc(path: &Path, len: u64) -> io::Result<u32> {
    let mut crc = Crc32::new();
    if len == 0 {
        return Ok(crc.finish());
    }
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; 64 * 1024];
    let mut left = len;
    while left > 0 {
        let want = buf.len().min(left as usize);
        file.read_exact(&mut buf[..want])?;
        crc.update(&buf[..want]);
        left -= want as u64;
    }
    Ok(crc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::LogRecord;
    use crate::TraceStore;
    use prov_engine::TraceSink;

    /// A path with no WAL and no snapshot files.
    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("prov-store-verify-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        for g in snapshot::generations(&path) {
            let _ = std::fs::remove_file(snapshot::snapshot_path(&path, g));
        }
        path
    }

    /// A store with two snapshot generations and one frame past the
    /// second one's marker.
    fn fixture(name: &str) -> PathBuf {
        let path = tmp(name);
        let s = TraceStore::open(&path).unwrap();
        for _ in 0..2 {
            let r = s.begin_run(&"wf".into());
            s.finish_run(r);
            s.snapshot().unwrap();
        }
        s.begin_run(&"wf".into());
        s.sync_wal().unwrap();
        path
    }

    /// Verifies `path`, then opens it, and checks the agreement law: the
    /// sweep calls the leading marker backed exactly when recovery loads
    /// the marked generation without falling back.
    fn verify_then_open(path: &Path) -> VerifyReport {
        let report = verify_store(path).unwrap();
        let store = TraceStore::open(path).unwrap();
        let marked = store.repl_position().generation > 0;
        let loaded = marked && store.snapshot_metrics().fallbacks.get() == 0;
        assert_eq!(report.marker_backed == Some(true), loaded, "{report:?}");
        report
    }

    /// The generation and verdict of every snapshot file in `report`.
    fn verdicts(report: &VerifyReport) -> Vec<(u64, bool)> {
        report.snapshots.iter().map(|s| (s.generation, s.valid)).collect()
    }

    #[test]
    fn a_fresh_snapshot_backs_its_marker() {
        let report = verify_then_open(&fixture("fresh"));
        assert_eq!((report.generation, report.marker_backed), (2, Some(true)));
        assert_eq!((report.wal_frames, verdicts(&report)), (2, vec![(1, true), (2, true)]));
        assert!(report.healthy());
    }

    #[test]
    fn an_unusable_marked_snapshot_is_unhealthy() {
        let snap = |path: &Path, generation| snapshot::snapshot_path(path, generation);
        // Missing.
        let missing = fixture("missing-snap");
        std::fs::remove_file(snap(&missing, 2)).unwrap();
        // Truncated on a frame boundary: the footer marker is gone.
        let cut = fixture("no-footer");
        let footer = crate::codec::encode(&LogRecord::Snapshot { generation: 2 }).unwrap().len();
        let full = std::fs::metadata(snap(&cut, 2)).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(snap(&cut, 2)).unwrap();
        file.set_len(full - (8 + footer as u64)).unwrap();
        // Whole, but of the wrong generation: generation 1's bytes.
        let wrong = fixture("wrong-gen");
        std::fs::copy(snap(&wrong, 1), snap(&wrong, 2)).unwrap();

        for (path, judged) in [
            (missing, vec![(1, true)]),
            (cut, vec![(1, true), (2, false)]),
            (wrong, vec![(1, true), (2, false)]),
        ] {
            let report = verify_then_open(&path);
            assert_eq!((report.generation, report.marker_backed), (2, Some(false)));
            assert_eq!(verdicts(&report), judged, "{}", path.display());
            assert!(!report.healthy());
        }
    }

    #[test]
    fn a_torn_wal_tail_is_still_healthy() {
        let path = fixture("torn");
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = bytes.len() as u64;
        bytes.extend_from_slice(&[0x40, 0, 0, 0, 1, 2]); // a frame header cut short
        std::fs::write(&path, bytes).unwrap();
        let report = verify_then_open(&path);
        assert_eq!((report.tail, report.wal_bytes), (TailState::TornTail { offset: clean }, clean));
        assert_eq!(report.marker_backed, Some(true));
        assert!(report.healthy());
    }

    #[test]
    fn a_missing_wal_is_an_empty_clean_log() {
        let report = verify_then_open(&tmp("absent"));
        assert_eq!((report.wal_frames, report.wal_bytes, report.generation), (0, 0, 0));
        assert_eq!((report.tail, report.marker_backed), (TailState::Clean, None));
        assert!(report.snapshots.is_empty());
        assert!(report.healthy());
    }
}
