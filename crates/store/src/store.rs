//! The trace store: tables + indexes + optional WAL, behind one handle.
//!
//! Internally everything is interned: processor and port names become
//! [`Sym`]s, element indices become packed [`IndexKey`]s, and the row heaps
//! hold compact symbol-typed rows. Strings exist only at the API boundary —
//! interned on the write path, resolved back when records are materialised
//! for callers. Query answers are bit-identical to the string-keyed layout
//! (probing with an unknown name degenerates to a [`Sym::MISSING`] probe
//! that finds nothing, with the same stats accounting).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{Index, ProcessorName, RunId, Value, ValueId};

use crate::catalog::{IndexCatalog, IndexId};
use crate::codec::{self, Event, Head, Kind, RowEncoder, Stage, Table};
use crate::fault::{FaultFile, FaultPlan};
use crate::rows::{PortDirection, XferRecord, XferRow, XformPortRow, XformRecord};
use crate::shard::{ReadView, RunShard};
use crate::snapshot::{self, SnapshotMetrics};
use crate::stats::QueryStats;
use crate::symbols::SymbolTable;
use crate::values::ValueTable;
use crate::wal::{LogRecord, TailState, WalCursor, WalError, WalFile, WalMetrics, WalWriter};

/// Most events one snapshot frame carries: frames large enough that the
/// codec's per-frame name and value tables pay, small enough that a
/// reader holds one frame at a time.
pub(crate) const SNAPSHOT_BATCH_EVENTS: usize = 1024;

/// Fsyncs the directory holding `path`, so a rename into it is durable.
fn sync_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Store-level errors.
#[derive(Debug)]
pub enum StoreError {
    /// WAL failure.
    Wal(WalError),
    /// A referenced run does not exist.
    UnknownRun(RunId),
    /// A referenced value id does not exist (dangling reference — indicates
    /// corruption).
    DanglingValue(ValueId),
    /// A WAL append or sync failed earlier; the writer was shut down to
    /// avoid writing an inconsistent tail, and everything recorded since is
    /// memory-only. Carries the original failure message.
    WalPoisoned {
        /// The first durability failure observed.
        message: String,
    },
    /// A record could not be serialised for export.
    Serialize(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wal(e) => write!(f, "{e}"),
            StoreError::UnknownRun(r) => write!(f, "unknown run {}", r.0),
            StoreError::DanglingValue(v) => write!(f, "dangling value reference {v}"),
            StoreError::WalPoisoned { message } => {
                write!(f, "wal writer shut down after durability failure: {message}")
            }
            StoreError::Serialize(e) => write!(f, "serialisation failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WalError> for StoreError {
    fn from(e: WalError) -> Self {
        StoreError::Wal(e)
    }
}

/// Metadata of one stored run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunInfo {
    /// The run id.
    pub id: RunId,
    /// The workflow that produced the trace.
    pub workflow: ProcessorName,
    /// Whether `finish_run` was observed.
    pub finished: bool,
    /// Number of xform rows in the run.
    pub xform_count: u64,
    /// Number of xfer rows in the run.
    pub xfer_count: u64,
}

#[derive(Default)]
struct Inner {
    runs: BTreeMap<RunId, RunInfo>,
    /// Registered workflow specifications, by name (serialised JSON; the
    /// store stays ignorant of the dataflow crate). The `Arc` is the
    /// registration's identity: it changes exactly when the bytes do, so a
    /// reader holding a spec it parsed earlier revalidates with
    /// `Arc::ptr_eq`.
    workflows: BTreeMap<ProcessorName, Arc<str>>,
    next_run: u64,
    /// Next global xform row id. Ids stay globally monotone across shards
    /// (the public `XformRecord::id` contract); row *positions* inside a
    /// shard are local to it.
    next_xform_id: u64,
    /// Next global xfer row id.
    next_xfer_id: u64,
    /// Content-addressed value table, shared by all shards. Behind an
    /// `Arc` so a [`ReadView`] can pin it without copying; mutated via
    /// `Arc::make_mut` (in place while unpinned, copy-on-write otherwise).
    values: Arc<ValueTable>,
    /// Processor/port name interner; rows and index keys hold symbols.
    /// Shared and copy-on-write exactly like `values`.
    symbols: Arc<SymbolTable>,
    /// One shard per run: that run's row heaps and composite indexes, as
    /// one independently pinnable unit.
    shards: HashMap<RunId, Arc<RunShard>>,
}

/// The WAL's one owner: the writer and everything that changes only with
/// it, behind [`TraceStore`]'s `wal` lock.
struct Log {
    /// Where frames go: `None` for in-memory stores, and once a durability
    /// failure has shut the writer down (see [`StoreError::WalPoisoned`]).
    writer: Option<WalWriter>,
    /// Frames in the WAL file, including any leading snapshot marker.
    frames: u64,
    /// Bytes in the WAL file.
    len: u64,
    /// Frames appended since the last sync: the group the next
    /// [`prov_obs::JournalEvent::WalSync`] reports.
    unsynced_frames: u64,
    /// Bytes appended since the last sync.
    unsynced_bytes: u64,
    /// Newest snapshot generation on disk; the next snapshot numbers above.
    snapshot_gen: u64,
    /// The plan every WAL and snapshot writer opens under (crash-torture
    /// only; budgets are per handle).
    fault_plan: Option<FaultPlan>,
    /// The store's WAL metrics, shared by every writer the log opens.
    metrics: WalMetrics,
    /// Where a replicated payload is staged before it is appended, kept
    /// from frame to frame.
    stage: Stage,
    /// What writes event frames from the rows they were inserted as,
    /// kept from frame to frame.
    encoder: RowEncoder,
}

impl Log {
    /// A writer appending to `path` cut to its first `len` bytes (created
    /// if missing), through a [`FaultFile`] under a fault plan. Its
    /// metrics are standalone.
    fn open_writer(&self, path: &Path, len: u64) -> Result<WalWriter, WalError> {
        // Deliberately not `truncate(true)`: `set_len` keeps the prefix.
        #[allow(clippy::suspicious_open_options)]
        std::fs::OpenOptions::new().create(true).write(true).open(path)?.set_len(len)?;
        let file: Box<dyn WalFile> = match self.fault_plan {
            None => Box::new(std::fs::OpenOptions::new().append(true).open(path)?),
            Some(plan) => Box::new(FaultFile::append_to(path, plan)?),
        };
        Ok(WalWriter::over(file))
    }

    /// Points the log at `path` cut to its first `len` bytes, which hold
    /// `frames` frames, then appends and syncs the snapshot marker of
    /// `marker` when given. The old writer is retired first, so its
    /// buffered frames land before the cut, never after it.
    fn restart(
        &mut self,
        path: &Path,
        len: u64,
        frames: u64,
        marker: Option<u64>,
    ) -> Result<(), WalError> {
        drop(self.writer.take());
        self.writer = Some(self.open_writer(path, len)?.with_metrics(self.metrics.clone()));
        (self.frames, self.len, self.unsynced_frames, self.unsynced_bytes) = (frames, len, 0, 0);
        if let Some(generation) = marker {
            self.append(|w| w.append(&LogRecord::Snapshot { generation }))?;
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one frame through `write` and counts it toward the file and
    /// the next sync's group. Without a writer it does nothing.
    fn append(
        &mut self,
        write: impl FnOnce(&mut WalWriter) -> Result<(), WalError>,
    ) -> Result<(), WalError> {
        let Some(w) = self.writer.as_mut() else { return Ok(()) };
        let before = self.metrics.bytes_written.get();
        write(w)?;
        let bytes = self.metrics.bytes_written.get() - before;
        self.frames += 1;
        self.len += bytes;
        self.unsynced_frames += 1;
        self.unsynced_bytes += bytes;
        Ok(())
    }

    /// Fsyncs the writer and returns the `(frames, bytes)` group it made
    /// durable; `None`, with no fsync, without a writer or a frame to sync.
    fn sync(&mut self) -> Result<Option<(u64, u64)>, WalError> {
        let Some(w) = self.writer.as_mut().filter(|_| self.unsynced_frames > 0) else {
            return Ok(None);
        };
        w.sync()?;
        let frames = std::mem::take(&mut self.unsynced_frames);
        Ok(Some((frames, std::mem::take(&mut self.unsynced_bytes))))
    }
}

/// The durable replication position of a store: which WAL lineage it is on
/// and how much of it has been fsynced. This is what a primary advertises
/// to followers and what a follower offers back in its handshake.
///
/// `generation` names the WAL lineage: the leading snapshot-marker
/// generation when the log was compacted, `0` for a marker-less log.
/// Two stores on the same generation with the same `durable_len` hold
/// byte-identical logs; a generation change means a snapshot rewrote the
/// log and byte offsets are no longer comparable (followers re-bootstrap).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplPosition {
    /// The WAL lineage (see type docs).
    pub generation: u64,
    /// Bytes of the current WAL known durable (fsynced).
    pub durable_len: u64,
    /// Frames of the current WAL known durable, including any leading
    /// snapshot marker.
    pub durable_frames: u64,
}

/// The embedded relational trace store. Cheap to share (`Arc` inside); all
/// methods take `&self`.
///
/// Lock order (where multiple locks are held): `wal` → (`inner` |
/// `repl_pos`). Every state change goes through one write path that
/// holds the `wal` lock across both the WAL append *and* the in-memory
/// apply, so [`TraceStore::snapshot`] (which takes the same lock) can
/// never truncate a frame whose effect the snapshot has not captured.
pub struct TraceStore {
    inner: RwLock<Inner>,
    wal: Mutex<Log>,
    path: Option<PathBuf>,
    stats: QueryStats,
    wal_metrics: WalMetrics,
    /// First durability failure, if any; set once, when a failed append or
    /// sync shuts the WAL writer down (see [`StoreError::WalPoisoned`]).
    wal_failure: OnceLock<String>,
    /// What recovery found past the clean prefix at open time (`None` for
    /// in-memory stores, which never recover).
    recovered_tail: Option<TailState>,
    /// Snapshot lifecycle counters.
    snap_metrics: SnapshotMetrics,
    /// The durable replication position (set at open, sync and snapshot;
    /// see [`ReplPosition`]). Its own lock rather than part of the `Log`:
    /// every ingest ack and every follower poll reads it, and none of them
    /// may wait behind an append and its fsync.
    repl_pos: Mutex<ReplPosition>,
    /// Optional event journal; WAL syncs and snapshot writes are recorded
    /// into it once attached (see [`TraceStore::attach_journal`]).
    journal: OnceLock<prov_obs::Journal>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("TraceStore")
            .field("runs", &inner.runs.len())
            .field("xforms", &inner.xform_rows())
            .field("xfers", &inner.xfer_rows())
            .field("values", &inner.values.len())
            .field("symbols", &inner.symbols.len())
            .field("durable", &self.path.is_some())
            .finish()
    }
}

impl TraceStore {
    /// A purely in-memory store (the benchmark configuration).
    pub fn in_memory() -> Self {
        Self::new(None, None)
    }

    /// An empty store whose log has no writer yet; `open_inner` recovers
    /// into it and then opens the writer.
    fn new(path: Option<PathBuf>, fault_plan: Option<FaultPlan>) -> Self {
        let wal_metrics = WalMetrics::new();
        let log = Log {
            writer: None,
            frames: 0,
            len: 0,
            unsynced_frames: 0,
            unsynced_bytes: 0,
            snapshot_gen: 0,
            fault_plan,
            metrics: wal_metrics.clone(),
            stage: Stage::default(),
            encoder: RowEncoder::default(),
        };
        TraceStore {
            inner: RwLock::new(Inner::default()),
            wal: Mutex::new(log),
            path,
            stats: QueryStats::new(),
            wal_metrics,
            wal_failure: OnceLock::new(),
            recovered_tail: None,
            snap_metrics: SnapshotMetrics::new(),
            repl_pos: Mutex::new(ReplPosition::default()),
            journal: OnceLock::new(),
        }
    }

    /// Opens (or creates) a durable store backed by a WAL at `path`,
    /// replaying any existing log. A torn or corrupt tail is truncated
    /// away, exactly once, before appending resumes; the recovery is
    /// surfaced through [`TraceStore::recovered_tail`] and the
    /// `wal.torn_tails` / `wal.corrupt_frames` counters. If the WAL opens
    /// with a [`LogRecord::Snapshot`] marker, base state is loaded from the
    /// corresponding snapshot file and only the WAL tail past the marker is
    /// replayed — falling back a generation if the newest snapshot is torn.
    pub fn open(path: impl AsRef<Path>) -> crate::Result<Self> {
        Self::open_inner(path.as_ref().to_path_buf(), None)
    }

    /// Like [`TraceStore::open`], but every subsequent WAL *and snapshot*
    /// write goes through a fault-injecting [`crate::fault::FaultFile`]
    /// driven by `plan` (budgets are per file handle). Recovery of the
    /// existing log is performed normally — the plan governs only new
    /// writes. Crash-torture harness: ingest until the plan fires (the
    /// writer poisons itself; see [`TraceStore::durability`]), drop the
    /// store, reopen with [`TraceStore::open`] and assert the durable
    /// prefix came back.
    pub fn open_with_fault(path: impl AsRef<Path>, plan: FaultPlan) -> crate::Result<Self> {
        Self::open_inner(path.as_ref().to_path_buf(), Some(plan))
    }

    fn open_inner(path: PathBuf, plan: Option<FaultPlan>) -> crate::Result<Self> {
        let mut store = Self::new(Some(path.clone()), plan);
        let existing = snapshot::generations(&path);
        // Frames stream through one stage, each applied once it has staged
        // whole; the first decides where the base state comes from.
        let mut cursor = match WalCursor::open(&path) {
            Ok(cursor) => Some(cursor),
            Err(WalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let mut stage = Stage::default();
        let mut frames = 0u64;
        let mut inner = store.inner.write();
        let mut rewrite_marker = None;
        let first = match cursor.as_mut() {
            Some(cursor) => cursor.next_staged(&mut stage)?,
            None => false,
        };
        let marked = stage.marker();
        match marked {
            // The WAL opens with a snapshot marker: base state lives in a
            // snapshot file; replay only the tail past the marker.
            Some(generation) => {
                store.load_snapshot(&mut inner, &path, &existing, generation);
            }
            // Empty WAL. If snapshots exist, a compaction crashed between
            // the WAL truncation and the marker append — load the newest
            // valid generation and rewrite the marker below so the next
            // recovery has its base again.
            None if !first => {
                rewrite_marker = existing
                    .last()
                    .and_then(|&g| store.load_snapshot(&mut inner, &path, &existing, g));
            }
            // Records with no leading marker: a store that has never
            // compacted, or a crash between a snapshot's rename and the
            // WAL truncation. Any snapshot files are stale; a full replay
            // is lossless.
            None => {}
        }
        let (clean_len, tail) = match cursor.as_mut() {
            Some(cursor) => {
                // A leading marker applies as a no-op and is not a replayed
                // frame.
                let mut more = first;
                while more {
                    inner.apply_staged(&mut stage, cursor.payload());
                    frames += 1;
                    more = cursor.next_staged(&mut stage)?;
                }
                (cursor.offset(), cursor.tail())
            }
            None => (0, TailState::Clean),
        };
        drop(inner);
        store.recovered_tail = Some(tail);
        match tail {
            TailState::Clean => {}
            TailState::TornTail { .. } => store.wal_metrics.torn_tails.inc(),
            TailState::CorruptFrame { .. } => store.wal_metrics.corrupt_frames.inc(),
        }
        store.wal_metrics.recovery_replayed_frames.add(frames - u64::from(marked.is_some()));

        let mut log = store.wal.lock();
        log.snapshot_gen = existing.last().copied().unwrap_or(0);
        match rewrite_marker {
            Some(generation) => log.restart(&path, 0, 0, Some(generation))?,
            None => log.restart(&path, clean_len, frames, None)?,
        }
        // The replication position the reopened store advertises: the WAL
        // lineage (leading marker generation, or 0 for a marker-less log)
        // and its durable extent. A rewritten marker is the whole log.
        *store.repl_pos.lock() = ReplPosition {
            generation: rewrite_marker.or(marked).unwrap_or(0),
            durable_len: log.len,
            durable_frames: log.frames,
        };
        drop(log);
        Ok(store)
    }

    /// Streams the newest whole snapshot at or below generation `from`
    /// into `inner`, which is empty, and returns its generation. A
    /// generation that is missing or torn is dropped whole — `inner` is
    /// emptied again — and counts as a fallback; each skip loses the
    /// records between two snapshots — possible only under external
    /// corruption, since a generation's marker is appended only after its
    /// file is durable — so a degraded answer beats none.
    fn load_snapshot(
        &self,
        inner: &mut Inner,
        path: &Path,
        existing: &[u64],
        from: u64,
    ) -> Option<u64> {
        let mut candidate = Some(from);
        while let Some(generation) = candidate {
            let file = snapshot::snapshot_path(path, generation);
            if snapshot::stream(&file, generation, |stage, payload| {
                inner.apply_staged(stage, payload)
            }) {
                return Some(generation);
            }
            *inner = Inner::default();
            self.snap_metrics.fallbacks.inc();
            candidate = existing.iter().rev().find(|&&g| g < generation).copied();
        }
        None
    }

    /// What WAL recovery found past the clean prefix when this store was
    /// opened: `None` for in-memory stores, `Some(TailState::Clean)` for an
    /// undamaged log, and a torn/corrupt tail state (with the damage
    /// offset) when a crash was repaired.
    pub fn recovered_tail(&self) -> Option<TailState> {
        self.recovered_tail
    }

    /// Errors if a WAL append or sync has failed since the store was
    /// opened (in which case the writer was shut down and recording is
    /// memory-only). Call after a run to confirm its trace is durable.
    pub fn durability(&self) -> crate::Result<()> {
        match self.wal_failure.get() {
            None => Ok(()),
            Some(message) => Err(StoreError::WalPoisoned { message: message.clone() }),
        }
    }

    /// The WAL file backing this store, if durable.
    pub fn wal_path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The durable replication position: WAL lineage plus fsynced extent.
    /// A primary advertises this to followers; a follower offers it back
    /// in its handshake. All zeros for in-memory stores.
    pub fn repl_position(&self) -> ReplPosition {
        *self.repl_pos.lock()
    }

    /// The on-disk snapshot file of `generation` beside the WAL at `path`
    /// (`<wal>.snap.<generation>`) — where replication bootstrap finds the
    /// base-state bytes to ship.
    pub fn snapshot_file_for(path: &Path, generation: u64) -> PathBuf {
        snapshot::snapshot_path(path, generation)
    }

    /// Paths of every snapshot generation currently beside the WAL at
    /// `path`, oldest first.
    pub fn snapshot_files(path: &Path) -> Vec<PathBuf> {
        snapshot::generations(path).into_iter().map(|g| snapshot::snapshot_path(path, g)).collect()
    }

    /// Replaces the store at `path` wholesale and opens the result: a
    /// replica's re-seed. Deletes the WAL and every snapshot file, installs
    /// `base` — a snapshot `(generation, file bytes)` shipped from a
    /// primary — when given, then opens, so recovery loads the installed
    /// snapshot and writes its leading marker. The body is fsynced before
    /// its rename, as [`TraceStore::snapshot`] does: open fsyncs a marker
    /// that points at it, and a durable marker must never outlive the
    /// snapshot it names.
    pub fn reseed(path: &Path, base: Option<(u64, &[u8])>) -> crate::Result<Self> {
        let tmp = snapshot::tmp_path(path);
        if let Some((_, body)) = base {
            let mut file = std::fs::File::create(&tmp).map_err(WalError::from)?;
            std::io::Write::write_all(&mut file, body).map_err(WalError::from)?;
            file.sync_all().map_err(WalError::from)?;
        }
        let _ = std::fs::remove_file(path);
        for g in snapshot::generations(path) {
            let _ = std::fs::remove_file(snapshot::snapshot_path(path, g));
        }
        if let Some((generation, _)) = base {
            std::fs::rename(&tmp, snapshot::snapshot_path(path, generation))
                .map_err(WalError::from)?;
            sync_dir(path).map_err(WalError::from)?;
        }
        Self::open(path)
    }

    /// Applies one replicated WAL payload (the bytes inside a frame the
    /// primary shipped): stages it, re-appends the *same* payload bytes to
    /// the local WAL — the resulting frame is byte-identical to the
    /// primary's, keeping the follower's log a byte-for-byte prefix of the
    /// primary's — and applies the staged frame in memory. Frames are
    /// buffered; call [`TraceStore::sync_wal`] to advance the durable
    /// position. A payload that does not decode, or a local durability
    /// failure, is an error (the follower treats either as grounds for
    /// re-sync).
    pub fn apply_replicated(&self, payload: &[u8]) -> crate::Result<()> {
        let mut log = self.wal.lock();
        log.stage
            .stage(payload)
            .map_err(|e| StoreError::Serialize(format!("replicated frame: {e}")))?;
        self.append(&mut log, |w| w.append_payload(payload));
        if self.path.is_some() && log.writer.is_none() {
            drop(log);
            let closed = StoreError::WalPoisoned { message: "writer closed".into() };
            return self.durability().and(Err(closed));
        }
        self.inner.write().apply_staged(&mut log.stage, payload);
        Ok(())
    }

    /// Fsyncs the WAL (advancing the durable replication position) and
    /// surfaces any durability failure as a typed error — the follower's
    /// per-chunk commit point.
    pub fn sync_wal(&self) -> crate::Result<()> {
        let mut log = self.wal.lock();
        self.sync_locked(&mut log);
        drop(log);
        self.durability()
    }

    /// Serialises the full store state to a numbered snapshot file
    /// (temp-then-rename) and truncates the WAL down to a single
    /// [`LogRecord::Snapshot`] marker frame, so the next recovery is *load
    /// snapshot + replay bounded tail*. Keeps the previous generation as a
    /// fallback and deletes anything older. A no-op for in-memory stores;
    /// a failure poisons the writer (recording continues memory-only) as
    /// well as being returned.
    pub fn snapshot(&self) -> crate::Result<()> {
        let Some(path) = self.path.as_deref() else { return Ok(()) };
        let mut log = self.wal.lock();
        if log.writer.is_none() {
            // Already poisoned: there is no consistent durable tail to
            // compact into a snapshot.
            drop(log);
            return self.durability();
        }
        let generation = log.snapshot_gen + 1;
        let size = match self.install_snapshot(&mut log, path, generation) {
            Ok(size) => size,
            Err(e) => {
                self.poison(&mut log, &e);
                return Err(e);
            }
        };
        log.snapshot_gen = generation;
        // The WAL is now exactly one synced marker frame on a new lineage.
        *self.repl_pos.lock() =
            ReplPosition { generation, durable_len: log.len, durable_frames: log.frames };
        self.snap_metrics.snapshots.inc();
        self.snap_metrics.snapshot_bytes.record(size);
        if let Some(j) = self.journal() {
            j.record(prov_obs::JournalEvent::SnapshotWrite { generation, bytes: size });
        }
        drop(log);
        for old in snapshot::generations(path) {
            if old + 1 < generation {
                let _ = std::fs::remove_file(snapshot::snapshot_path(path, old));
            }
        }
        Ok(())
    }

    /// Writes snapshot `generation` beside the WAL at `path`, makes its
    /// rename durable, and starts the WAL over as that generation's
    /// marker. Returns the snapshot file's size.
    fn install_snapshot(&self, log: &mut Log, path: &Path, generation: u64) -> crate::Result<u64> {
        let tmp = snapshot::tmp_path(path);
        let size = self.write_snapshot(log, &tmp, generation)?;
        // The directory is synced before the marker that names the file is
        // written: otherwise a power cut could keep the marker and lose the
        // rename.
        std::fs::rename(&tmp, snapshot::snapshot_path(path, generation))
            .and_then(|()| sync_dir(path))
            .map_err(WalError::from)?;
        // Truncate the WAL and plant the marker. A crash between the
        // rename above and the truncation leaves a marker-less WAL (full
        // replay ignoring snapshots); between the truncation and the
        // marker append, an empty WAL beside valid snapshots (recovery
        // loads the newest and rewrites the marker). Both are lossless.
        // Flushing the retired writer into the about-to-be-truncated file
        // is harmless — that state is in the snapshot.
        log.restart(path, 0, 0, Some(generation))?;
        Ok(size)
    }

    /// Streams current state into `tmp` in the WAL frame format, bracketed
    /// by `Snapshot { generation }` markers: workflows and run headers
    /// first, then each run's rows as [`LogRecord::Batch`] frames of at
    /// most [`SNAPSHOT_BATCH_EVENTS`] events (xforms, then xfers), encoded
    /// straight from the rows, then the finish records. Snapshot bytes
    /// are not WAL throughput, so the writer gets standalone metrics;
    /// under a [`FaultPlan`] the write goes through a fresh fault handle
    /// (its budget relative to the snapshot's first byte), which is what
    /// lets torture sweeps crash mid-snapshot.
    fn write_snapshot(&self, log: &mut Log, tmp: &Path, generation: u64) -> crate::Result<u64> {
        let mut w = log.open_writer(tmp, 0)?;
        let marker = LogRecord::Snapshot { generation };
        w.append(&marker)?;
        {
            let inner = self.inner.read();
            for (name, json) in &inner.workflows {
                w.append(&LogRecord::Workflow { name: name.clone(), json: json.to_string() })?;
            }
            for info in inner.runs.values() {
                w.append(&LogRecord::BeginRun { run: info.id, workflow: info.workflow.clone() })?;
            }
            let encoder = &mut log.encoder;
            for info in inner.runs.values() {
                let Some(shard) = inner.shards.get(&info.id) else { continue };
                let xforms = shard.xforms.len();
                let rows = xforms + shard.xfers.len();
                for start in (0..rows).step_by(SNAPSHOT_BATCH_EVENTS) {
                    let chunk = start..rows.min(start + SNAPSHOT_BATCH_EVENTS);
                    let kind = |row| if row < xforms { Kind::Xform } else { Kind::Xfer };
                    encoder.kinds.extend(chunk.map(kind));
                    let from = (start.min(xforms), start.saturating_sub(xforms));
                    let (symbols, values) = (&inner.symbols, &inner.values);
                    let payload = encoder.encode(info.id, true, shard, from, symbols, values)?;
                    w.append_group(&payload)?;
                }
            }
            for info in inner.runs.values().filter(|i| i.finished) {
                w.append(&LogRecord::FinishRun { run: info.id })?;
            }
        }
        w.append(&marker)?;
        w.sync()?;
        drop(w);
        Ok(std::fs::metadata(tmp).map_err(WalError::from)?.len())
    }

    /// Snapshot lifecycle metrics (counts, sizes, recovery fallbacks).
    pub fn snapshot_metrics(&self) -> &SnapshotMetrics {
        &self.snap_metrics
    }

    // Durability failures must not pass silently, but the `TraceSink`
    // recording methods cannot return errors and panicking would take down
    // the engine mid-run. Instead the writer is *poisoned*: the first
    // failure shuts it down (no further appends can land past an
    // inconsistent tail), the message is retained, and
    // [`TraceStore::durability`] reports it as a typed `StoreError`.
    fn append(&self, log: &mut Log, write: impl FnOnce(&mut WalWriter) -> Result<(), WalError>) {
        if let Err(e) = log.append(write) {
            self.poison(log, &e);
        }
    }

    /// Shuts the writer down after a durability failure, retaining the
    /// first failure message for [`TraceStore::durability`].
    fn poison(&self, log: &mut Log, failure: &dyn std::fmt::Display) {
        log.writer = None;
        let _ = self.wal_failure.set(failure.to_string());
    }

    // ------------------------------------------------------------------
    // Query surface
    // ------------------------------------------------------------------

    /// Access statistics (shared counters, never reset by the store).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// WAL throughput and fsync-latency metrics (zero for in-memory
    /// stores; shared across writer re-creations).
    pub fn wal_metrics(&self) -> &WalMetrics {
        &self.wal_metrics
    }

    /// Adopts this store's counters into `registry` under stable dotted
    /// names (`store.*`, `wal.*`). The registry shares the same atomics,
    /// so registration costs nothing on the hot path. Also records the
    /// current table sizes as `store.*` gauges (refresh with
    /// [`TraceStore::record_gauges`]).
    pub fn register_metrics(&self, registry: &prov_obs::Registry) {
        self.stats.register(registry);
        self.wal_metrics.register(registry);
        self.snap_metrics.register(registry);
        self.record_gauges(registry);
        // What recovery found at open time, as gauges: state 0 = clean,
        // 1 = torn tail, 2 = corrupt frame; offset = first damaged byte
        // (0 when clean). Only durable stores recover.
        if let Some(tail) = self.recovered_tail {
            let (state, offset) = match tail {
                TailState::Clean => (0, 0),
                TailState::TornTail { offset } => (1, offset),
                TailState::CorruptFrame { offset } => (2, offset),
            };
            registry.set_gauge("wal.recovered_tail_state", state);
            registry.set_gauge("wal.recovered_tail_offset", offset);
        }
    }

    /// Attaches an event journal: subsequent WAL syncs and snapshot writes
    /// emit [`prov_obs::JournalEvent`]s into it. Set-once (`OnceLock`);
    /// later calls are ignored so the first attached handle stays
    /// authoritative. A disabled journal handle costs one branch per
    /// durability event.
    pub fn attach_journal(&self, journal: &prov_obs::Journal) {
        let _ = self.journal.set(journal.clone());
    }

    fn journal(&self) -> Option<&prov_obs::Journal> {
        self.journal.get()
    }

    /// Sets point-in-time size gauges (`store.runs`, `store.xform_rows`,
    /// `store.xfer_rows`, `store.values`, `store.symbols`,
    /// `store.index_keys`) from current table state.
    pub fn record_gauges(&self, registry: &prov_obs::Registry) {
        if !registry.is_enabled() {
            return;
        }
        let (runs, xforms, xfers) = {
            let inner = self.inner.read();
            (inner.runs.len(), inner.xform_rows(), inner.xfer_rows())
        };
        registry.set_gauge("store.runs", runs as u64);
        registry.set_gauge("store.xform_rows", xforms as u64);
        registry.set_gauge("store.xfer_rows", xfers as u64);
        registry.set_gauge("store.values", self.value_count() as u64);
        registry.set_gauge("store.symbols", self.symbol_count() as u64);
        let (a, b, c, d) = self.index_key_counts();
        registry.set_gauge("store.index_keys", (a + b + c + d) as u64);
    }

    /// The catalog of composite indexes this store serves, with current
    /// key counts — the physical-design side of the static plan contract.
    /// All four indexes are always maintained; callers model degraded
    /// stores with [`IndexCatalog::without`].
    pub fn index_catalog(&self) -> IndexCatalog {
        let (a, b, c, d) = self.index_key_counts();
        IndexCatalog::new([a as u64, b as u64, c as u64, d as u64])
    }

    /// Pins an immutable, lock-free snapshot of one run's trace: one brief
    /// read-lock acquisition to clone the run's shard `Arc` (and the shared
    /// symbol/value tables), after which every probe on the returned
    /// [`ReadView`] runs without touching any store lock. Recording that
    /// happens after the pin copy-on-writes fresh shard state, so the view
    /// keeps answering from the exact state it was pinned against.
    ///
    /// Unknown (or dropped) runs pin the shared empty shard: probes run —
    /// and are accounted in the stats — exactly as against a populated
    /// shard that happens to contain no matching rows.
    pub fn pin(&self, run: RunId) -> ReadView {
        let inner = self.inner.read();
        ReadView::new(
            run,
            inner.shards.get(&run).cloned(),
            Arc::clone(&inner.symbols),
            Arc::clone(&inner.values),
            self.stats.clone(),
        )
    }

    /// All stored runs, in id order.
    pub fn runs(&self) -> Vec<RunInfo> {
        self.inner.read().runs.values().cloned().collect()
    }

    /// Whether the store holds `run` (begun and not dropped), under one
    /// read lock and without copying any run's metadata.
    pub fn has_run(&self, run: RunId) -> bool {
        self.inner.read().runs.contains_key(&run)
    }

    /// Ids of the runs of one workflow, in id order (the scope set `𝒯` of
    /// multi-run queries, §3.4).
    pub fn runs_of(&self, workflow: &ProcessorName) -> Vec<RunId> {
        self.inner.read().runs.values().filter(|i| &i.workflow == workflow).map(|i| i.id).collect()
    }

    /// Resolves a value id.
    pub fn value(&self, id: ValueId) -> Option<Value> {
        self.inner.read().values.get(id).cloned()
    }

    /// Total number of trace records of one run (xform rows + xfer rows) —
    /// the measure reported in the paper's Table 1.
    pub fn trace_record_count(&self, run: RunId) -> u64 {
        self.inner.read().runs.get(&run).map(|i| i.xform_count + i.xfer_count).unwrap_or(0)
    }

    /// Total records across all runs (the x-axis of Fig. 6).
    pub fn total_record_count(&self) -> u64 {
        self.inner.read().runs.values().map(|i| i.xform_count + i.xfer_count).sum()
    }

    /// [`ReadView::xforms_producing`] on a fresh pin of `run`.
    /// `ledger/src/driver.rs` calls this until ROADMAP item 2(a).
    pub fn xforms_producing(
        &self,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<XformRecord> {
        self.pin(run).xforms_producing(processor, port, index)
    }

    /// [`ReadView::xfers_into`] on a fresh pin of `run`.
    /// `ledger/src/driver.rs` calls this until ROADMAP item 2(a).
    pub fn xfers_into(
        &self,
        run: RunId,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<XferRecord> {
        self.pin(run).xfers_into(processor, port, index)
    }

    /// Drops a run: its metadata and index entries go immediately; its
    /// heap rows are tombstoned and reclaimed by the next
    /// [`TraceStore::snapshot`]. Dropping an unknown run errors.
    pub fn drop_run(&self, run: RunId) -> crate::Result<()> {
        self.write(true, |inner| match inner.runs.contains_key(&run) {
            true => Ok(Some(LogRecord::DropRun { run })),
            false => Err(StoreError::UnknownRun(run)),
        })
    }

    /// Registers (or overwrites) a workflow specification, making the
    /// database self-contained: INDEXPROJ consumers can fetch the spec of
    /// any recorded workflow by name. The payload is opaque JSON (the
    /// store does not depend on the dataflow crate); identical bytes log
    /// nothing.
    pub fn register_workflow(&self, name: &ProcessorName, json: String) {
        let _ = self.write(true, |inner| {
            let same = inner.workflows.get(name).is_some_and(|old| **old == *json);
            Ok((!same).then(|| LogRecord::Workflow { name: name.clone(), json }))
        });
    }

    /// The one write path of every state change. Under the `wal` lock and
    /// the tables' write lock, `make` builds the record from the current
    /// state (`None`: it would change nothing, so nothing is logged); the
    /// record is applied and its frame encoded ([`Inner::apply_and_encode`]),
    /// the frame appended once the tables are released, and at a `durable`
    /// point the log synced. Returns the durability failure this write
    /// hit, if any.
    fn write(
        &self,
        durable: bool,
        make: impl FnOnce(&Inner) -> crate::Result<Option<LogRecord>>,
    ) -> crate::Result<()> {
        let mut log = self.wal.lock();
        let mut inner = self.inner.write();
        let Some(record) = make(&inner)? else { return Ok(()) };
        let had_writer = log.writer.is_some();
        let frame = inner.apply_and_encode(record, &mut log.encoder, had_writer);
        drop(inner);
        if let Some(frame) = frame {
            self.append(&mut log, |w| match frame? {
                (payload, true) => w.append_group(&payload),
                (payload, false) => w.append_payload(&payload),
            });
        }
        if durable {
            self.sync_locked(&mut log);
        }
        if had_writer && log.writer.is_none() {
            drop(log);
            return self.durability();
        }
        Ok(())
    }

    /// Syncs the WAL under the held lock, poisoning the writer on failure
    /// (see [`TraceStore::durability`]). A silent `let _ = sync()` would
    /// report a trace as recorded that never reached the disk.
    fn sync_locked(&self, log: &mut Log) {
        match log.sync() {
            Err(e) => self.poison(log, &e),
            Ok(None) => {}
            Ok(Some((frames, bytes))) => {
                // Everything appended so far is now durable: advance the
                // position replicas are allowed to read up to.
                let mut pos = self.repl_pos.lock();
                (pos.durable_len, pos.durable_frames) = (log.len, log.frames);
                drop(pos);
                if let Some(j) = self.journal() {
                    j.record(prov_obs::JournalEvent::WalSync { frames, bytes });
                }
            }
        }
    }

    /// The registered specification JSON of a workflow, if any. Two calls
    /// return the same allocation unless different bytes were registered
    /// in between.
    pub fn workflow_json(&self, name: &ProcessorName) -> Option<Arc<str>> {
        self.inner.read().workflows.get(name).cloned()
    }

    /// Names of all registered workflows.
    pub fn workflow_names(&self) -> Vec<ProcessorName> {
        self.inner.read().workflows.keys().cloned().collect()
    }

    /// Number of distinct interned values (diagnostics).
    pub fn value_count(&self) -> usize {
        self.inner.read().values.len()
    }

    /// Number of distinct interned processor/port names (diagnostics: the
    /// symbol table is tiny even for huge traces, which is why interning
    /// pays for itself).
    pub fn symbol_count(&self) -> usize {
        self.inner.read().symbols.len()
    }

    /// Distinct composite keys in each secondary index, in the order
    /// `(xform_out, xform_in, xfer_dst, xfer_src)` (diagnostics: shows how
    /// index size tracks trace size).
    pub fn index_key_counts(&self) -> (usize, usize, usize, usize) {
        let inner = self.inner.read();
        inner.shards.values().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.index(IndexId::XformOut).key_count(),
                acc.1 + s.index(IndexId::XformIn).key_count(),
                acc.2 + s.index(IndexId::XferDst).key_count(),
                acc.3 + s.index(IndexId::XferSrc).key_count(),
            )
        })
    }
}

impl Inner {
    /// Total xform rows across all shards.
    fn xform_rows(&self) -> usize {
        self.shards.values().map(|s| s.xforms.len()).sum()
    }

    /// Total xfer rows across all shards.
    fn xfer_rows(&self) -> usize {
        self.shards.values().map(|s| s.xfers.len()).sum()
    }

    /// Applies an owned record: a record without events on the live write
    /// path, and replay of a JSON-era payload.
    fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::BeginRun { run, workflow } => self.begin_run(run, workflow),
            LogRecord::Xform { run, event } => {
                self.insert(run, &[TraceEvent::Xform(event)], &mut Vec::new());
            }
            LogRecord::Xfer { run, event } => {
                self.insert(run, &[TraceEvent::Xfer(event)], &mut Vec::new());
            }
            LogRecord::Batch { run, events } => {
                self.insert(run, &events, &mut Vec::new());
            }
            LogRecord::FinishRun { run } => self.finish_run(run),
            LogRecord::DropRun { run } => self.drop_run(run),
            LogRecord::Workflow { name, json } => self.register_workflow(name, &json),
            // Markers delimit recovery phases; replay itself ignores them.
            LogRecord::Snapshot { .. } => {}
        }
    }

    /// Applies a live `record` and, when the log has a writer to `encode`
    /// for, returns its frame: the payload and whether it is a group
    /// commit. A record's events are inserted first and their frame is
    /// encoded from the rows just written.
    fn apply_and_encode(
        &mut self,
        record: LogRecord,
        encoder: &mut RowEncoder,
        encode: bool,
    ) -> Option<Result<(Vec<u8>, bool), WalError>> {
        let kinds = &mut encoder.kinds;
        let (run, batch, from) = match record {
            LogRecord::Xform { run, event } => {
                (run, false, self.insert(run, &[TraceEvent::Xform(event)], kinds))
            }
            LogRecord::Xfer { run, event } => {
                (run, false, self.insert(run, &[TraceEvent::Xfer(event)], kinds))
            }
            LogRecord::Batch { run, events } => (run, true, self.insert(run, &events, kinds)),
            record => {
                let frame = encode.then(|| Ok((codec::encode(&record)?, false)));
                self.apply(record);
                return frame;
            }
        };
        if !encode {
            return None;
        }
        let shard = &self.shards[&run];
        let payload = encoder.encode(run, batch, shard, from, &self.symbols, &self.values);
        Some(payload.map(|payload| (payload, batch)))
    }

    /// Applies a frame staged from `payload` — replay's path — to the
    /// same state [`Inner::apply`] reaches from the record the stage
    /// materialises. Events go straight into the run's shard, each frame
    /// table entry interned the first time an event uses it.
    fn apply_staged(&mut self, stage: &mut Stage, payload: &[u8]) {
        let Stage { head, events, ports, table, .. } = stage;
        match std::mem::take(head) {
            Head::Empty | Head::Snapshot { .. } => {}
            Head::Json(record) => self.apply(record),
            Head::BeginRun { run, workflow } => {
                self.begin_run(run, ProcessorName::from(table.name(payload, workflow)))
            }
            Head::Events { run, .. } => self.insert_staged(run, events, ports, table, payload),
            Head::FinishRun { run } => self.finish_run(run),
            Head::DropRun { run } => self.drop_run(run),
            Head::Workflow { name, json } => {
                let name = ProcessorName::from(table.name(payload, name));
                self.register_workflow(name, codec::text(payload, &json));
            }
        }
    }

    fn begin_run(&mut self, run: RunId, workflow: ProcessorName) {
        self.runs.insert(
            run,
            RunInfo { id: run, workflow, finished: false, xform_count: 0, xfer_count: 0 },
        );
        self.next_run = self.next_run.max(run.0 + 1);
    }

    fn finish_run(&mut self, run: RunId) {
        if let Some(info) = self.runs.get_mut(&run) {
            info.finished = true;
        }
    }

    fn drop_run(&mut self, run: RunId) {
        // The run's rows, indexes, and value entries all live in its shard:
        // removing it reclaims everything at once (a pinned view keeps its
        // `Arc` alive until it drops).
        self.runs.remove(&run);
        self.shards.remove(&run);
    }

    fn register_workflow(&mut self, name: ProcessorName, json: &str) {
        // Identical bytes keep the registration's identity (logs written
        // before the write path skipped them hold some).
        if self.workflows.get(&name).map(|old| &**old) != Some(json) {
            self.workflows.insert(name, json.into());
        }
    }

    // The insert paths mutate the shared tables and the run's shard via
    // `Arc::make_mut`, once per batch or frame: while no `ReadView` is
    // pinned the refcount is one and every write is in place (no clone,
    // no allocation beyond the rows themselves); a live pin makes exactly
    // the first subsequent write clone the pinned structure, which is
    // what gives views snapshot isolation. The three `make_mut` calls
    // borrow disjoint fields, so they coexist.

    /// Inserts live `events` of `run` in order and returns the positions
    /// of the first new xform row and xfer row in the run's shard. Each
    /// event's kind is recorded in `kinds`, cleared first: the
    /// interleaving the frame encoder writes. The events are borrowed, a
    /// value cloned only when the table first sees it, and the caller
    /// drops them whole afterwards: consuming them here, each value moved
    /// in and each event freed piece by piece between the row and index
    /// pushes, made the daemon's ingest decoder, allocating on another
    /// core, slower per served run (EXPERIMENTS.md).
    fn insert(
        &mut self,
        run: RunId,
        events: &[TraceEvent],
        kinds: &mut Vec<Kind>,
    ) -> (usize, usize) {
        kinds.clear();
        let symbols = Arc::make_mut(&mut self.symbols);
        let values = Arc::make_mut(&mut self.values);
        let shard = Arc::make_mut(self.shards.entry(run).or_default());
        let from = (shard.xforms.len(), shard.xfers.len());
        for event in events {
            match event {
                TraceEvent::Xform(e) => {
                    shard.insert_xform(self.next_xform_id, e, symbols, values);
                    self.next_xform_id += 1;
                    kinds.push(Kind::Xform);
                }
                TraceEvent::Xfer(e) => {
                    shard.insert_xfer(self.next_xfer_id, e, symbols, values);
                    self.next_xfer_id += 1;
                    kinds.push(Kind::Xfer);
                }
            }
        }
        if let Some(info) = self.runs.get_mut(&run) {
            info.xform_count += (shard.xforms.len() - from.0) as u64;
            info.xfer_count += (shard.xfers.len() - from.1) as u64;
        }
        from
    }

    /// Inserts a staged frame's events into `run`'s shard in event order,
    /// interning through `table` in the order the event path interns:
    /// an xform's processor, then each binding's value and port; an
    /// xfer's value, then its source and destination names.
    fn insert_staged(
        &mut self,
        run: RunId,
        events: &[Event],
        ports: &[codec::Port],
        table: &mut Table,
        payload: &[u8],
    ) {
        if events.is_empty() {
            return;
        }
        let symbols = Arc::make_mut(&mut self.symbols);
        let values = Arc::make_mut(&mut self.values);
        let shard = Arc::make_mut(self.shards.entry(run).or_default());
        let (mut xforms, mut xfers) = (0, 0);
        for event in events {
            match event {
                Event::Xform { processor, invocation, ports: at } => {
                    let processor = table.sym(payload, *processor, symbols);
                    let rows = ports[at.clone()].iter().map(|p| XformPortRow {
                        direction: p.direction,
                        value: table.value_id(p.value, values),
                        port: table.sym(payload, p.port, symbols),
                        index: p.index.clone(),
                    });
                    shard.push_xform(self.next_xform_id, processor, *invocation, rows);
                    self.next_xform_id += 1;
                    xforms += 1;
                }
                Event::Xfer { src, src_index, dst, dst_index, value } => {
                    let value = table.value_id(*value, values);
                    shard.push_xfer(XferRow {
                        id: self.next_xfer_id,
                        src_processor: table.sym(payload, src[0], symbols),
                        src_port: table.sym(payload, src[1], symbols),
                        src_index: src_index.clone(),
                        dst_processor: table.sym(payload, dst[0], symbols),
                        dst_port: table.sym(payload, dst[1], symbols),
                        dst_index: dst_index.clone(),
                        value,
                    });
                    self.next_xfer_id += 1;
                    xfers += 1;
                }
            }
        }
        if let Some(info) = self.runs.get_mut(&run) {
            info.xform_count += xforms;
            info.xfer_count += xfers;
        }
    }
}

// Every method is one record through `TraceStore::write`; only
// `finish_run` is a durable point.
impl TraceSink for TraceStore {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        let mut run = RunId(0);
        let _ = self.write(false, |inner| {
            run = RunId(inner.next_run);
            Ok(Some(LogRecord::BeginRun { run, workflow: workflow.clone() }))
        });
        run
    }

    fn record_xform(&self, run: RunId, event: XformEvent) {
        let _ = self.write(false, |_| Ok(Some(LogRecord::Xform { run, event })));
    }

    fn record_xfer(&self, run: RunId, event: XferEvent) {
        let _ = self.write(false, |_| Ok(Some(LogRecord::Xfer { run, event })));
    }

    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        // One WAL frame, then one write-lock acquisition for the whole
        // batch — the group commit the per-event path can't amortise.
        if !events.is_empty() {
            let _ = self.write(false, |_| Ok(Some(LogRecord::Batch { run, events })));
        }
    }

    fn finish_run(&self, run: RunId) {
        // Durability failure poisons the writer instead of panicking;
        // `durability()` surfaces it as a typed error.
        let _ = self.write(true, |_| Ok(Some(LogRecord::FinishRun { run })));
    }
}

// The durable trace doubles as a run checkpoint: everything the resume
// path needs is a point query against the existing composite indexes.
impl prov_engine::ResumeSource for TraceStore {
    fn run_workflow(&self, run: RunId) -> Option<ProcessorName> {
        self.inner.read().runs.get(&run).map(|i| i.workflow.clone())
    }

    fn run_finished(&self, run: RunId) -> bool {
        self.inner.read().runs.get(&run).map(|i| i.finished).unwrap_or(false)
    }

    fn settled_outputs(
        &self,
        run: RunId,
        processor: &ProcessorName,
        index: &Index,
        ports: &[std::sync::Arc<str>],
    ) -> Option<Vec<Value>> {
        // Zero-output processors have nothing to prove settlement with and
        // always re-execute.
        let first = ports.first()?;
        let view = self.pin(run);
        'cand: for rec in &view.xforms_producing(processor, first, index) {
            let mut out = Vec::with_capacity(ports.len());
            for port in ports {
                // An exact-index output binding must exist for every port;
                // `xforms_producing` overlap-matches, so re-check equality.
                let Some(p) = rec.ports.iter().find(|p| {
                    p.direction == PortDirection::Out && *p.port == **port && p.index == *index
                }) else {
                    continue 'cand;
                };
                out.push(view.value(p.value)?);
            }
            return Some(out);
        }
        None
    }

    fn has_xfer(&self, run: RunId, event: &XferEvent) -> bool {
        let view = self.pin(run);
        let into = view.xfers_into(&event.dst.processor, &event.dst.port, &event.dst_index);
        into.iter().any(|r| {
            r.dst_index == event.dst_index
                && r.src_processor == event.src.processor
                && *r.src_port == *event.src.port
                && r.src_index == event.src_index
                && view.value(r.value).as_ref() == Some(&event.value)
        })
    }
}

/// What replay oracles need from a store.
#[cfg(test)]
impl TraceStore {
    /// The event path: applies `record` as an owned record, logging
    /// nothing.
    pub(crate) fn apply_record(&self, record: LogRecord) {
        self.inner.write().apply(record);
    }

    /// Every interned name, in symbol order.
    pub(crate) fn symbol_names(&self) -> Vec<Arc<str>> {
        let inner = self.inner.read();
        (0..inner.symbols.len() as u32)
            .map(|i| inner.symbols.resolve(crate::symbols::Sym(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalReader;
    use prov_engine::PortBinding;
    use prov_model::PortRef;

    fn xform(proc: &str, inv: u32, q: &[u32], in_idx: &[u32]) -> XformEvent {
        XformEvent {
            processor: ProcessorName::from(proc),
            invocation: inv,
            inputs: vec![PortBinding::new("x", Index::from_slice(in_idx), Value::str("in"))],
            outputs: vec![PortBinding::new("y", Index::from_slice(q), Value::str("out"))],
        }
    }

    fn xfer(src: (&str, &str), dst: (&str, &str), idx: &[u32], v: &str) -> XferEvent {
        XferEvent {
            src: PortRef::new(src.0, src.1),
            src_index: Index::from_slice(idx),
            dst: PortRef::new(dst.0, dst.1),
            dst_index: Index::from_slice(idx),
            value: Value::str(v),
        }
    }

    #[test]
    fn begin_run_assigns_monotone_ids() {
        let s = TraceStore::in_memory();
        let a = s.begin_run(&"wf".into());
        let b = s.begin_run(&"wf".into());
        assert_eq!(a, RunId(0));
        assert_eq!(b, RunId(1));
        assert_eq!(s.runs().len(), 2);
        assert!(!s.runs()[0].finished);
        s.finish_run(a);
        assert!(s.runs()[0].finished);
    }

    #[test]
    fn runs_of_filters_by_workflow() {
        let s = TraceStore::in_memory();
        let a = s.begin_run(&"gk".into());
        let _b = s.begin_run(&"pd".into());
        let c = s.begin_run(&"gk".into());
        assert_eq!(s.runs_of(&"gk".into()), vec![a, c]);
    }

    #[test]
    fn xform_lookup_by_output_overlap() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        s.record_xform(r, xform("P", 1, &[1], &[1]));
        // Exact index.
        let hits = s.xforms_producing(r, &"P".into(), "y", &Index::single(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].invocation, 1);
        // Finer query index [1,2]: the producing invocation has prefix [1].
        let hits = s.xforms_producing(r, &"P".into(), "y", &Index::from_slice(&[1, 2]));
        assert_eq!(hits.len(), 1);
        // Coarse query []: both invocations overlap.
        let hits = s.xforms_producing(r, &"P".into(), "y", &Index::empty());
        assert_eq!(hits.len(), 2);
        // Wrong port or run: nothing.
        assert!(s.xforms_producing(r, &"P".into(), "z", &Index::empty()).is_empty());
        assert!(s.xforms_producing(RunId(99), &"P".into(), "y", &Index::empty()).is_empty());
    }

    #[test]
    fn xfer_lookup_by_destination() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[0], "v0"));
        s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[1], "v1"));
        let hits = s.xfers_into(r, &"B".into(), "x", &Index::single(0));
        assert_eq!(hits.len(), 1);
        assert_eq!(s.value(hits[0].value), Some(Value::str("v0")));
        assert_eq!(hits[0].src_processor, ProcessorName::from("A"));
    }

    #[test]
    fn index_catalog_reports_key_counts_and_port_cardinality() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        s.record_xform(r, xform("P", 1, &[1, 0], &[1, 0]));
        s.record_xfer(r, xfer(("A", "y"), ("P", "x"), &[0], "v"));
        let cat = s.index_catalog();
        for id in IndexId::ALL {
            assert!(cat.serves(id));
        }
        assert_eq!(cat.key_count(IndexId::XformIn), 2);
        assert_eq!(cat.key_count(IndexId::XferSrc), 1);
        assert!(!cat.without(IndexId::XformIn).serves(IndexId::XformIn));

        let c = s.pin(r).port_cardinality(IndexId::XformIn, &"P".into(), "x");
        assert_eq!(c.keys, 2);
        assert_eq!(c.rows, 2);
        assert_eq!(c.max_depth, 2);
        // Unknown names and other runs are zero, not errors.
        let z = s.pin(r).port_cardinality(IndexId::XformIn, &"nope".into(), "x");
        assert_eq!(z, crate::PortCardinality::default());
        let z = s.pin(RunId(9)).port_cardinality(IndexId::XformIn, &"P".into(), "x");
        assert_eq!(z.keys, 0);
    }

    #[test]
    fn record_counts_track_table1_measure() {
        let s = TraceStore::in_memory();
        let r1 = s.begin_run(&"wf".into());
        s.record_xform(r1, xform("P", 0, &[0], &[0]));
        s.record_xfer(r1, xfer(("A", "y"), ("B", "x"), &[0], "v"));
        s.record_xfer(r1, xfer(("A", "y"), ("B", "x"), &[1], "v"));
        let r2 = s.begin_run(&"wf".into());
        s.record_xform(r2, xform("P", 0, &[0], &[0]));
        assert_eq!(s.trace_record_count(r1), 3);
        assert_eq!(s.trace_record_count(r2), 1);
        assert_eq!(s.total_record_count(), 4);
    }

    #[test]
    fn values_are_interned_across_events() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        for i in 0..10 {
            s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[i], "same"));
        }
        assert_eq!(s.value_count(), 1);
    }

    #[test]
    fn names_are_interned_across_events() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        for i in 0..10 {
            s.record_xform(r, xform("P", i, &[i], &[i]));
            s.record_xfer(r, xfer(("P", "y"), ("Q", "x"), &[i], "v"));
        }
        // P, Q, x, y — regardless of row count.
        assert_eq!(s.symbol_count(), 4);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("prov-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn durable_store_survives_reopen() {
        let path = tmp("reopen");
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.record_xfer(r, xfer(("A", "y"), ("P", "x"), &[0], "v"));
            s.finish_run(r);
        }
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.runs().len(), 1);
        assert!(s.runs()[0].finished);
        assert_eq!(s.trace_record_count(RunId(0)), 2);
        let hits = s.xforms_producing(RunId(0), &"P".into(), "y", &Index::single(0));
        assert_eq!(hits.len(), 1);
        // New runs continue after the replayed id space.
        let r2 = s.begin_run(&"wf".into());
        assert_eq!(r2, RunId(1));
    }

    #[test]
    fn batched_recording_is_equivalent_and_durable() {
        let path = tmp("batch-equiv");
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_batch(
                r,
                vec![
                    TraceEvent::Xform(xform("P", 0, &[0], &[0])),
                    TraceEvent::Xfer(xfer(("P", "y"), ("Q", "x"), &[0], "out")),
                    TraceEvent::Xform(xform("P", 1, &[1], &[1])),
                ],
            );
            s.record_batch(r, Vec::new()); // empty batches are no-ops
            s.finish_run(r);
        }
        // Batched WAL frames replay to the same queryable state.
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.trace_record_count(RunId(0)), 3);
        assert_eq!(s.xforms_producing(RunId(0), &"P".into(), "y", &Index::empty()).len(), 2);
        assert_eq!(s.xfers_into(RunId(0), &"Q".into(), "x", &Index::single(0)).len(), 1);
        // Rows kept recording order within the run.
        let rows = s.pin(RunId(0)).xforms_of_run();
        assert_eq!(rows.iter().map(|r| r.invocation).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn reopen_after_torn_tail_truncates_and_continues() {
        let path = tmp("torn");
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.finish_run(r);
        }
        // Tear the tail.
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 2).unwrap();
        let torn = WalReader::read_all(&path).unwrap();
        assert_eq!(torn.records.len(), 2);
        assert!(!torn.tail.is_clean());
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.recovered_tail(), Some(TailState::TornTail { offset: torn.clean_len }));
        // FinishRun frame was torn: run exists, unfinished, xform intact.
        assert_eq!(s.runs().len(), 1);
        assert!(!s.runs()[0].finished);
        assert_eq!(s.trace_record_count(RunId(0)), 1);
        // Appending after truncation lands right after the clean prefix and
        // keeps the log clean.
        let r2 = s.begin_run(&"wf".into());
        s.finish_run(r2);
        let rec = WalReader::read_all(&path).unwrap();
        assert_eq!(rec.records[..2], torn.records[..]);
        let appended = [
            LogRecord::BeginRun { run: r2, workflow: "wf".into() },
            LogRecord::FinishRun { run: r2 },
        ];
        assert_eq!(rec.records[2..], appended);
        assert_eq!(rec.tail, TailState::Clean);
        let s2 = TraceStore::open(&path).unwrap();
        assert_eq!(s2.runs().len(), 2);
    }

    #[test]
    fn snapshot_compacts_and_preserves_state() {
        let path = tmp_snap("compact");
        let s = TraceStore::open(&path).unwrap();
        let r = s.begin_run(&"wf".into());
        for i in 0..20 {
            s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[i], "v"));
        }
        s.finish_run(r);
        let before = std::fs::metadata(&path).unwrap().len();
        s.snapshot().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < before, "the WAL did not shrink");
        let s2 = TraceStore::open(&path).unwrap();
        assert_eq!(s2.trace_record_count(RunId(0)), 20);
        assert!(s2.runs()[0].finished);
    }

    #[test]
    fn snapshot_writes_each_run_as_batch_frames() {
        let path = tmp_snap("batch-frames");
        let s = TraceStore::open(&path).unwrap();
        s.register_workflow(&"wf".into(), "{}".to_string());
        // Rows per run: past two frame boundaries, exactly one frame, one
        // row, and an unfinished run with none.
        let sizes = [2 * SNAPSHOT_BATCH_EVENTS + 5, SNAPSHOT_BATCH_EVENTS, 1, 0];
        for (n, &rows) in sizes.iter().enumerate() {
            let r = s.begin_run(&"wf".into());
            let events = (0..rows as u32).map(|i| match i % 3 {
                0 => TraceEvent::Xform(xform("P", i, &[i], &[i])),
                _ => TraceEvent::Xfer(xfer(("A", "y"), ("P", "x"), &[i], "v")),
            });
            s.record_batch(r, events.collect());
            if n < 3 {
                s.finish_run(r);
            }
        }
        s.snapshot().unwrap();

        let records = WalReader::read_all(&crate::snapshot::snapshot_path(&path, 1)).unwrap();
        let count =
            |want: fn(&LogRecord) -> bool| records.records.iter().filter(|r| want(r)).count();
        assert_eq!(count(|r| matches!(r, LogRecord::Snapshot { generation: 1 })), 2);
        assert_eq!(count(|r| matches!(r, LogRecord::Workflow { .. })), 1);
        assert_eq!(count(|r| matches!(r, LogRecord::BeginRun { .. })), 4);
        assert_eq!(count(|r| matches!(r, LogRecord::FinishRun { .. })), 3);
        assert_eq!(count(|r| matches!(r, LogRecord::Xform { .. } | LogRecord::Xfer { .. })), 0);
        // ⌈rows / SNAPSHOT_BATCH_EVENTS⌉ frames per run, not one per row.
        for (run, (&rows, want)) in sizes.iter().zip([3, 1, 1, 0]).enumerate() {
            let frames: Vec<usize> = records
                .records
                .iter()
                .filter_map(|r| match r {
                    LogRecord::Batch { run: r, events } if r.0 == run as u64 => Some(events.len()),
                    _ => None,
                })
                .collect();
            assert_eq!(frames.len(), want, "run {run}");
            assert!(frames.iter().all(|&n| n <= SNAPSHOT_BATCH_EVENTS));
            assert_eq!(frames.iter().sum::<usize>(), rows);
        }

        // Reopening from the batch frames rebuilds the same store.
        let s2 = TraceStore::open(&path).unwrap();
        assert_eq!(s2.runs(), s.runs());
        let y = |s: &TraceStore| s.xforms_producing(RunId(0), &"P".into(), "y", &Index::single(3));
        assert_eq!(y(&s2), y(&s));
    }

    #[test]
    fn a_value_nested_too_deep_poisons_the_writer_and_stays_in_memory() {
        let path = tmp_snap("too-deep");
        let deep = (0..=codec::MAX_DEPTH).fold(Value::int(1), |v, _| Value::List(vec![v]));
        let s = TraceStore::open(&path).unwrap();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        let too_deep = XferEvent { value: deep.clone(), ..xfer(("P", "y"), ("Q", "x"), &[0], "v") };
        s.record_batch(r, vec![TraceEvent::Xfer(too_deep)]);
        // Its frame could never be read back, so the writer shuts down
        // with a typed error…
        let err = s.durability().unwrap_err();
        let poisoned =
            matches!(&err, StoreError::WalPoisoned { message } if message.contains("deeper than"));
        assert!(poisoned, "{err}");
        // …while the record is in memory, and recording goes on there.
        assert_eq!(s.trace_record_count(r), 2);
        let hits = s.xfers_into(r, &"Q".into(), "x", &Index::single(0));
        assert_eq!(s.value(hits[0].value), Some(deep));
        s.finish_run(r);
        assert!(s.runs()[0].finished);
        drop(s);
        // The WAL is the clean prefix before the refused frame.
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.recovered_tail(), Some(TailState::Clean));
        assert_eq!(s.trace_record_count(r), 1);
        assert!(!s.runs()[0].finished);
    }

    #[test]
    fn apply_replicated_takes_both_payload_kinds_and_refuses_the_undecodable() {
        let path = tmp_snap("apply-replicated");
        let s = TraceStore::open(&path).unwrap();
        let begin = LogRecord::BeginRun { run: RunId(0), workflow: "wf".into() };
        s.apply_replicated(&codec::encode(&begin).unwrap()).unwrap();
        let finish = LogRecord::FinishRun { run: RunId(0) };
        s.apply_replicated(&serde_json::to_vec(&finish).unwrap()).unwrap();
        let xfer =
            LogRecord::Xfer { run: RunId(0), event: xfer(("A", "y"), ("B", "x"), &[0], "v") };
        let payload = codec::encode(&xfer).unwrap();
        let err = s.apply_replicated(&payload[..payload.len() - 1]).unwrap_err();
        assert!(matches!(err, StoreError::Serialize(_)), "{err}");
        s.sync_wal().unwrap();
        // The refused payload reached neither the WAL nor the tables.
        assert_eq!(WalReader::read_all(&path).unwrap().records, vec![begin, finish]);
        assert_eq!(s.trace_record_count(RunId(0)), 0);
        assert!(s.runs()[0].finished);
    }

    #[test]
    fn drop_run_removes_queryability_and_survives_checkpoint() {
        let path = tmp_snap("drop");
        let s = TraceStore::open(&path).unwrap();
        let keep = s.begin_run(&"wf".into());
        s.record_xform(keep, xform("P", 0, &[0], &[0]));
        let gone = s.begin_run(&"wf".into());
        s.record_xform(gone, xform("P", 0, &[1], &[1]));
        s.record_xfer(gone, xfer(("A", "y"), ("B", "x"), &[0], "v"));
        s.finish_run(keep);
        s.finish_run(gone);

        s.drop_run(gone).unwrap();
        assert_eq!(s.runs().len(), 1);
        assert!(s.xforms_producing(gone, &"P".into(), "y", &Index::empty()).is_empty());
        assert!(s.pin(gone).xforms_of_run().is_empty());
        assert_eq!(s.trace_record_count(gone), 0);
        // The kept run is untouched.
        assert_eq!(s.xforms_producing(keep, &"P".into(), "y", &Index::empty()).len(), 1);

        // Durability: the drop replays…
        let s2 = TraceStore::open(&path).unwrap();
        assert_eq!(s2.runs().len(), 1);
        assert!(s2.pin(gone).xforms_of_run().is_empty());

        // …and a snapshot reclaims the space.
        s2.snapshot().unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let s3 = TraceStore::open(&path).unwrap();
        assert_eq!(s3.runs().len(), 1);
        assert!(s3.pin(gone).xforms_of_run().is_empty());
        assert_eq!(s3.xforms_producing(keep, &"P".into(), "y", &Index::empty()).len(), 1);
        assert!(before > 0);
    }

    #[test]
    fn bindings_with_value_finds_all_roles() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0])); // in "in", out "out"
        s.record_xfer(r, xfer(("P", "y"), ("Q", "x"), &[0], "out"));
        // "out" appears as P's output AND as the transferred element.
        let hits = s.pin(r).bindings_with_value(&Value::str("out"));
        assert!(hits.iter().any(|b| b.port == PortRef::new("P", "y")));
        assert!(hits.iter().any(|b| b.port == PortRef::new("Q", "x")));
        // Misses return empty; other runs are isolated.
        assert!(s.pin(r).bindings_with_value(&Value::str("nope")).is_empty());
        let r2 = s.begin_run(&"wf".into());
        assert!(s.pin(r2).bindings_with_value(&Value::str("out")).is_empty());
    }

    #[test]
    fn bindings_with_value_order_survives_snapshot_and_reopen() {
        let path = tmp_snap("find-value");
        let s = TraceStore::open(&path).unwrap();
        let r = s.begin_run(&"wf".into());
        // "out" is on xfer rows recorded before and after the xforms.
        s.record_xfer(r, xfer(("A", "y"), ("P", "x"), &[0], "out"));
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        s.record_xfer(r, xfer(("P", "y"), ("Q", "x"), &[0], "out"));
        s.record_xform(r, xform("Q", 0, &[1], &[0]));
        s.finish_run(r);
        let hits = |s: &TraceStore| s.pin(r).bindings_with_value(&Value::str("out"));
        let before = hits(&s);
        assert_eq!(before.len(), 5, "{before:?}");
        s.snapshot().unwrap();
        drop(s);
        assert_eq!(hits(&TraceStore::open(&path).unwrap()), before);
    }

    #[test]
    fn workflow_registry_survives_reopen_and_checkpoint() {
        let path = tmp_snap("wfreg");
        {
            let s = TraceStore::open(&path).unwrap();
            s.register_workflow(&"wf".into(), "{\"fake\":1}".to_string());
            assert_eq!(&*s.workflow_json(&"wf".into()).unwrap(), "{\"fake\":1}");
        }
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.workflow_names(), vec![ProcessorName::from("wf")]);
        s.snapshot().unwrap();
        drop(s);
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(&*s.workflow_json(&"wf".into()).unwrap(), "{\"fake\":1}");
        // Re-registration overwrites — and hands out a new identity
        // exactly when the bytes change.
        let first = s.workflow_json(&"wf".into()).unwrap();
        s.register_workflow(&"wf".into(), "{\"fake\":1}".to_string());
        assert!(Arc::ptr_eq(&first, &s.workflow_json(&"wf".into()).unwrap()));
        s.register_workflow(&"wf".into(), "{\"fake\":2}".to_string());
        assert_eq!(&*s.workflow_json(&"wf".into()).unwrap(), "{\"fake\":2}");
    }

    #[test]
    fn drop_unknown_run_errors() {
        let s = TraceStore::in_memory();
        assert!(matches!(s.drop_run(RunId(9)), Err(StoreError::UnknownRun(_))));
    }

    #[test]
    fn index_key_counts_track_inserts() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[0], "v"));
        let (xo, xi, xd, xs) = s.index_key_counts();
        assert_eq!((xo, xi, xd, xs), (1, 1, 1, 1));
    }

    #[test]
    fn of_run_scans_charge_only_that_runs_rows() {
        // Regression: with per-run row spans, reading a small run that is
        // co-resident with a much larger one must touch only the small
        // run's rows — the old implementation scanned the whole heap.
        let s = TraceStore::in_memory();
        let big = s.begin_run(&"wf".into());
        for i in 0..100 {
            s.record_xform(big, xform("P", i, &[i], &[i]));
            s.record_xfer(big, xfer(("P", "y"), ("Q", "x"), &[i], "v"));
        }
        let small = s.begin_run(&"wf".into());
        s.record_xform(small, xform("P", 0, &[0], &[0]));
        s.record_xfer(small, xfer(("P", "y"), ("Q", "x"), &[0], "v"));

        let before = s.stats().snapshot();
        let view = s.pin(small);
        assert_eq!(view.xforms_of_run().len(), 1);
        assert_eq!(view.xfers_of_run().len(), 1);
        let after = s.stats().snapshot();
        assert_eq!(after.rows_scanned - before.rows_scanned, 2);
        assert_eq!(after.records_read - before.records_read, 2);
    }

    #[test]
    fn interleaved_runs_keep_their_own_spans() {
        let s = TraceStore::in_memory();
        let a = s.begin_run(&"wf".into());
        let b = s.begin_run(&"wf".into());
        for i in 0..5 {
            s.record_xform(a, xform("P", 2 * i, &[2 * i], &[2 * i]));
            s.record_xform(b, xform("P", 2 * i + 1, &[2 * i + 1], &[2 * i + 1]));
        }
        let rows =
            |run| -> Vec<u32> { s.pin(run).xforms_of_run().iter().map(|r| r.invocation).collect() };
        let (rows_a, rows_b) = (rows(a), rows(b));
        assert_eq!(rows_a, vec![0, 2, 4, 6, 8]);
        assert_eq!(rows_b, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn pinned_view_is_isolated_from_later_recording() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        let view = s.pin(r);
        // Recording after the pin copy-on-writes new shard state…
        s.record_xform(r, xform("P", 1, &[1], &[1]));
        s.record_xfer(r, xfer(("P", "y"), ("Q", "x"), &[0], "v"));
        // …so the view still answers from the pinned state…
        assert_eq!(view.xforms_of_run().len(), 1);
        assert_eq!(view.trace_record_count(), 1);
        assert!(view.xforms_producing(&"P".into(), "y", &Index::single(1)).is_empty());
        // …while the store (and a fresh pin) see everything.
        assert_eq!(s.pin(r).xforms_of_run().len(), 2);
        assert_eq!(s.pin(r).trace_record_count(), 3);
        assert_eq!(s.pin(r).xforms_producing(&"P".into(), "y", &Index::single(1)).len(), 1);
    }

    #[test]
    fn pinned_view_matches_store_answers_and_counter_deltas() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        for i in 0..8 {
            s.record_xform(r, xform("P", i, &[i], &[i]));
            s.record_xfer(r, xfer(("P", "y"), ("Q", "x"), &[i], "v"));
        }
        let view = s.pin(r);
        let at = Index::single(3);
        let (p, q) = (ProcessorName::from("P"), ProcessorName::from("Q"));
        let delta = |f: &dyn Fn() -> usize| {
            let before = s.stats().snapshot();
            let hits = f();
            (hits, s.stats().snapshot().since(before))
        };
        // The view's ProbeStats batching lands on identical totals, and
        // both feed the same shared counters.
        let via_store = delta(&|| s.xforms_producing(r, &p, "y", &at).len());
        let via_view = delta(&|| view.xforms_producing(&p, "y", &at).len());
        assert_eq!(via_store, via_view);
        assert_eq!(s.xforms_producing(r, &p, "y", &at), view.xforms_producing(&p, "y", &at));
        let via_store = delta(&|| s.xfers_into(r, &q, "x", &at).len());
        let via_view = delta(&|| view.xfers_into(&q, "x", &at).len());
        assert_eq!(via_store, via_view);
        assert_eq!(s.xfers_into(r, &q, "x", &at), view.xfers_into(&q, "x", &at));
        assert_eq!(via_view.0, 1);
        assert!(via_view.1.index_lookups > 0);
    }

    #[test]
    fn unknown_run_view_probes_the_empty_shard_with_identical_accounting() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        let q = Index::from_slice(&[0, 1]);
        // A probe of a run that exists but has no matching rows…
        let other = s.begin_run(&"wf".into());
        s.record_xform(other, xform("Q", 0, &[0], &[0]));
        let before = s.stats().snapshot();
        assert!(s.xforms_producing(other, &"P".into(), "y", &q).is_empty());
        let known_delta = s.stats().snapshot().since(before);
        // …and of a run that does not exist at all must cost the same
        // index probes (|q| + 2 for the overlap lookup).
        let before = s.stats().snapshot();
        assert!(s.xforms_producing(RunId(99), &"P".into(), "y", &q).is_empty());
        let unknown_delta = s.stats().snapshot().since(before);
        assert_eq!(known_delta, unknown_delta);
        assert_eq!(unknown_delta.index_lookups, q.len() as u64 + 2);
    }

    #[test]
    fn dropped_run_stays_readable_through_a_pinned_view() {
        let s = TraceStore::in_memory();
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        let view = s.pin(r);
        s.drop_run(r).unwrap();
        // The store no longer answers; the pinned view holds the shard
        // alive until it drops.
        assert!(s.pin(r).xforms_of_run().is_empty());
        assert_eq!(view.xforms_of_run().len(), 1);
    }

    #[test]
    fn concurrent_recording_from_multiple_threads() {
        let s = std::sync::Arc::new(TraceStore::in_memory());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    let r = s.begin_run(&"wf".into());
                    for i in 0..50 {
                        s.record_xform(r, xform("P", i, &[i], &[i]));
                    }
                    s.finish_run(r);
                });
                let _ = t;
            }
        });
        assert_eq!(s.runs().len(), 4);
        assert_eq!(s.total_record_count(), 200);
        // Every run sees exactly its own 50 rows via its spans.
        for info in s.runs() {
            assert_eq!(s.pin(info.id).xforms_of_run().len(), 50);
        }
    }

    /// Like `tmp`, but also clears snapshot generations left by an earlier
    /// process with the same pid.
    fn tmp_snap(name: &str) -> std::path::PathBuf {
        let path = tmp(name);
        for g in crate::snapshot::generations(&path) {
            let _ = std::fs::remove_file(crate::snapshot::snapshot_path(&path, g));
        }
        let _ = std::fs::remove_file(crate::snapshot::tmp_path(&path));
        path
    }

    #[test]
    fn snapshot_then_reopen_replays_only_the_tail() {
        let path = tmp_snap("snap-zero");
        {
            let s = TraceStore::open(&path).unwrap();
            s.register_workflow(&"wf".into(), "{\"fake\":1}".to_string());
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.record_xfer(r, xfer(("A", "y"), ("P", "x"), &[0], "v"));
            s.finish_run(r);
            s.snapshot().unwrap();
            assert_eq!(s.snapshot_metrics().snapshots.get(), 1);
            // More work lands in the post-snapshot tail.
            s.record_xform(r, xform("P", 1, &[1], &[1]));
        }
        let s = TraceStore::open(&path).unwrap();
        // Base from the snapshot, one tail frame replayed.
        assert_eq!(s.wal_metrics().recovery_replayed_frames.get(), 1);
        assert_eq!(s.trace_record_count(RunId(0)), 3);
        assert!(s.runs()[0].finished);
        assert_eq!(&*s.workflow_json(&"wf".into()).unwrap(), "{\"fake\":1}");
        assert_eq!(s.xforms_producing(RunId(0), &"P".into(), "y", &Index::empty()).len(), 2);
        // Run ids continue past the replayed space.
        assert_eq!(s.begin_run(&"wf".into()), RunId(1));
    }

    #[test]
    fn torn_newest_snapshot_falls_back_a_generation() {
        let path = tmp_snap("snap-fallback");
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.snapshot().unwrap(); // generation 1
            s.record_xform(r, xform("P", 1, &[1], &[1]));
            s.snapshot().unwrap(); // generation 2
            s.finish_run(r);
        }
        // Corrupt generation 2 (external damage): flip a payload byte.
        let snap2 = crate::snapshot::snapshot_path(&path, 2);
        let mut bytes = std::fs::read(&snap2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap2, bytes).unwrap();

        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.snapshot_metrics().fallbacks.get(), 1);
        // Generation 1 state plus the replayed tail past the marker. The
        // records between the two snapshots are lost to the corruption —
        // the degraded-but-available contract.
        assert_eq!(s.xforms_producing(RunId(0), &"P".into(), "y", &Index::single(0)).len(), 1);
        assert!(s.runs()[0].finished);
    }

    #[test]
    fn crash_between_truncation_and_marker_rewrites_the_marker() {
        let path = tmp_snap("snap-marker-rewrite");
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.snapshot().unwrap();
            s.finish_run(r);
        }
        // Simulate the crash: WAL truncated to nothing, snapshot intact.
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        {
            let s = TraceStore::open(&path).unwrap();
            assert_eq!(s.wal_metrics().recovery_replayed_frames.get(), 0);
            assert_eq!(s.trace_record_count(RunId(0)), 1);
            // The finish was in the truncated tail, so the run is unfinished.
            assert!(!s.runs()[0].finished);
        }
        // The marker was rewritten: a second recovery still finds its base.
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.trace_record_count(RunId(0)), 1);
    }

    #[test]
    fn stale_snapshot_beside_marker_less_wal_is_ignored() {
        let path = tmp_snap("snap-stale");
        let pre_snapshot = {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.record_xform(r, xform("P", 0, &[0], &[0]));
            s.record_xform(r, xform("P", 1, &[1], &[1]));
            s.finish_run(r);
            let wal = std::fs::read(&path).unwrap();
            s.snapshot().unwrap();
            wal
        };
        // Simulate the crash: the snapshot was renamed into place, but the
        // WAL was never truncated to its marker. The marker-less log holds
        // every record, so recovery must replay it alone, not on top of the
        // snapshot.
        assert_eq!(TraceStore::snapshot_files(&path).len(), 1);
        std::fs::write(&path, &pre_snapshot).unwrap();
        let s = TraceStore::open(&path).unwrap();
        assert_eq!(s.trace_record_count(RunId(0)), 2);
        assert_eq!(s.runs().len(), 1);
        assert!(s.runs()[0].finished);
        assert_eq!(s.repl_position().generation, 0, "a marker-less log is lineage 0");
    }

    #[test]
    fn wal_sync_reports_the_frames_appended_since_the_previous_sync() {
        let path = tmp_snap("sync-groups");
        let batch = |i: u32| vec![TraceEvent::Xfer(xfer(("A", "y"), ("B", "x"), &[i], "v"))];
        let syncs = |journal: &prov_obs::Journal| -> Vec<(u64, u64)> {
            let events = journal.events().into_iter().map(|e| e.event);
            events
                .filter_map(|e| match e {
                    prov_obs::JournalEvent::WalSync { frames, bytes } => Some((frames, bytes)),
                    _ => None,
                })
                .collect()
        };
        let start;
        let mut groups = Vec::new();
        {
            let s = TraceStore::open(&path).unwrap();
            let r = s.begin_run(&"wf".into());
            s.sync_wal().unwrap();
            start = std::fs::metadata(&path).unwrap().len();
            let journal = prov_obs::Journal::new(64);
            s.attach_journal(&journal);
            for i in 0..3 {
                s.record_batch(r, batch(i));
            }
            s.sync_wal().unwrap();
            for i in 3..5 {
                s.record_batch(r, batch(i));
            }
            s.sync_wal().unwrap();
            groups.extend(syncs(&journal));
        }
        // A reopened store reports only its own appends, not the replayed
        // log it recovered.
        let s = TraceStore::open(&path).unwrap();
        let journal = prov_obs::Journal::new(64);
        s.attach_journal(&journal);
        s.record_batch(RunId(0), batch(5));
        s.sync_wal().unwrap();
        groups.extend(syncs(&journal));

        let frames: Vec<u64> = groups.iter().map(|g| g.0).collect();
        assert_eq!(frames, vec![3, 2, 1]);
        let growth = std::fs::metadata(&path).unwrap().len() - start;
        assert_eq!(groups.iter().map(|g| g.1).sum::<u64>(), growth);
    }

    #[test]
    fn repl_position_matches_the_wal_file() {
        let path = tmp_snap("repl-pos");
        let agrees = |s: &TraceStore, step: &str| {
            let mut cursor = crate::wal::WalCursor::open(&path).unwrap();
            let mut frames = 0;
            while cursor.next_record().unwrap().is_some() {
                frames += 1;
            }
            let pos = s.repl_position();
            assert_eq!(pos.durable_len, std::fs::metadata(&path).unwrap().len(), "{step}");
            assert_eq!(pos.durable_frames, frames, "{step}");
        };
        let s = TraceStore::open(&path).unwrap();
        agrees(&s, "open empty");
        let r = s.begin_run(&"wf".into());
        s.record_xform(r, xform("P", 0, &[0], &[0]));
        s.sync_wal().unwrap();
        agrees(&s, "record_xform");
        s.record_batch(r, vec![TraceEvent::Xfer(xfer(("A", "y"), ("P", "x"), &[0], "v"))]);
        s.sync_wal().unwrap();
        agrees(&s, "record_batch");
        s.register_workflow(&"wf".into(), "{}".to_string());
        agrees(&s, "register_workflow");
        let gone = s.begin_run(&"wf".into());
        s.drop_run(gone).unwrap();
        agrees(&s, "drop_run");
        let replicated = LogRecord::Xfer { run: r, event: xfer(("P", "y"), ("Q", "x"), &[0], "w") };
        s.apply_replicated(&codec::encode(&replicated).unwrap()).unwrap();
        s.sync_wal().unwrap();
        agrees(&s, "apply_replicated");
        s.finish_run(r);
        agrees(&s, "finish_run");
        drop(s);

        let s = TraceStore::open(&path).unwrap();
        agrees(&s, "reopen marker-less");
        s.snapshot().unwrap();
        agrees(&s, "snapshot");
        s.record_xform(r, xform("P", 1, &[1], &[1]));
        s.sync_wal().unwrap();
        agrees(&s, "append past the marker");
        drop(s);

        let s = TraceStore::open(&path).unwrap();
        agrees(&s, "reopen past a marker");
        drop(s);
        // A crash between the WAL truncation and the marker append.
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(0).unwrap();
        let s = TraceStore::open(&path).unwrap();
        agrees(&s, "reopen empty beside snapshots");
        assert_eq!(s.repl_position().generation, 1);
    }
}
