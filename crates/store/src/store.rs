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
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{Index, PortRef, ProcessorName, RunId, Value, ValueId};

use crate::catalog::{IndexCatalog, IndexId};
use crate::codec;
use crate::fault::FaultPlan;
use crate::rows::{PortDirection, XferRecord, XferRow, XformPortRow, XformRecord, XformRow};
use crate::shard::{ReadView, RunShard};
use crate::snapshot::{self, CompactionPolicy, SnapshotMetrics};
use crate::stats::QueryStats;
use crate::symbols::SymbolTable;
use crate::values::ValueTable;
use crate::wal::{LogRecord, TailState, WalError, WalMetrics, WalReader, WalWriter};

/// Most events one snapshot frame carries: frames large enough that the
/// codec's per-frame name and value tables pay, small enough that a
/// reader holds one frame at a time.
const SNAPSHOT_BATCH_EVENTS: usize = 1024;

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
            StoreError::UnknownRun(r) => write!(f, "unknown run {r}"),
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

/// The pending (post-snapshot) WAL tail: what a crash right now would
/// force recovery to replay. Drives the [`CompactionPolicy`] check.
#[derive(Debug, Default, Clone, Copy)]
struct TailUsage {
    frames: u64,
    bytes: u64,
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
/// Lock order (where multiple locks are held): `wal` → `inner` →
/// (`wal_tail` | `snapshot_gen` | `compaction`). Recording methods hold the
/// `wal` lock across both the WAL append *and* the in-memory insert, so
/// [`TraceStore::snapshot`] (which takes the same lock) can never truncate
/// a frame whose effect the snapshot has not captured.
pub struct TraceStore {
    inner: RwLock<Inner>,
    wal: Mutex<Option<WalWriter>>,
    path: Option<PathBuf>,
    stats: QueryStats,
    wal_metrics: WalMetrics,
    /// First durability failure, if any; set when the WAL writer is shut
    /// down mid-session (see [`StoreError::WalPoisoned`]).
    wal_failure: Mutex<Option<String>>,
    /// What recovery found past the clean prefix at open time (`None` for
    /// in-memory stores, which never recover).
    recovered_tail: Option<TailState>,
    /// Snapshot lifecycle counters.
    snap_metrics: SnapshotMetrics,
    /// Frames/bytes appended since the last snapshot (or open).
    wal_tail: Mutex<TailUsage>,
    /// Automatic compaction policy, checked after every recording call.
    compaction: Mutex<Option<CompactionPolicy>>,
    /// Newest snapshot generation on disk; the next snapshot numbers above.
    snapshot_gen: Mutex<u64>,
    /// Frames appended to the current WAL since its first byte (including
    /// any leading snapshot marker) — the frame-count twin of the WAL's
    /// byte length, advertised to replicas.
    wal_frames: Mutex<u64>,
    /// The durable replication position (updated at open, sync and
    /// snapshot; see [`ReplPosition`]).
    repl_pos: Mutex<ReplPosition>,
    /// Fault-injection plan new WAL/snapshot writers are created under
    /// (crash-torture only; budgets are per-handle).
    fault_plan: Option<FaultPlan>,
    /// Optional event journal; WAL syncs and snapshot writes are recorded
    /// into it once attached (see [`TraceStore::attach_journal`]).
    journal: std::sync::OnceLock<prov_obs::Journal>,
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
        TraceStore {
            inner: RwLock::new(Inner::default()),
            wal: Mutex::new(None),
            path: None,
            stats: QueryStats::new(),
            wal_metrics: WalMetrics::new(),
            wal_failure: Mutex::new(None),
            recovered_tail: None,
            snap_metrics: SnapshotMetrics::new(),
            wal_tail: Mutex::new(TailUsage::default()),
            compaction: Mutex::new(None),
            snapshot_gen: Mutex::new(0),
            wal_frames: Mutex::new(0),
            repl_pos: Mutex::new(ReplPosition::default()),
            fault_plan: None,
            journal: std::sync::OnceLock::new(),
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
        let recovery = WalReader::read_all(&path)?;
        let store = TraceStore {
            inner: RwLock::new(Inner::default()),
            wal: Mutex::new(None),
            path: Some(path.clone()),
            stats: QueryStats::new(),
            wal_metrics: WalMetrics::new(),
            wal_failure: Mutex::new(None),
            recovered_tail: Some(recovery.tail),
            snap_metrics: SnapshotMetrics::new(),
            wal_tail: Mutex::new(TailUsage::default()),
            compaction: Mutex::new(None),
            snapshot_gen: Mutex::new(0),
            wal_frames: Mutex::new(0),
            repl_pos: Mutex::new(ReplPosition::default()),
            fault_plan: plan,
            journal: std::sync::OnceLock::new(),
        };
        match recovery.tail {
            TailState::Clean => {}
            TailState::TornTail { .. } => store.wal_metrics.torn_tails.inc(),
            TailState::CorruptFrame { .. } => store.wal_metrics.corrupt_frames.inc(),
        }

        let existing = snapshot::generations(&path);
        let total_frames = recovery.records.len() as u64;
        let marked_gen = match recovery.records.first() {
            Some(LogRecord::Snapshot { generation }) => Some(*generation),
            _ => None,
        };
        let mut replayed = 0u64;
        let mut rewrite_marker: Option<u64> = None;
        match recovery.records.first() {
            // The WAL opens with a snapshot marker: base state lives in a
            // snapshot file; replay only the tail past the marker. If the
            // marked generation is torn, fall back one generation at a time
            // (each skip loses the records between the two snapshots —
            // possible only under external corruption, since a generation's
            // marker is appended only after its file is durable — so a
            // degraded answer beats none).
            Some(LogRecord::Snapshot { generation }) => {
                let marked = *generation;
                let mut inner = store.inner.write();
                let mut candidate = Some(marked);
                while let Some(generation) = candidate {
                    if let Some(records) =
                        snapshot::load(&snapshot::snapshot_path(&path, generation), generation)
                    {
                        for record in records {
                            inner.apply(record);
                        }
                        break;
                    }
                    store.snap_metrics.fallbacks.inc();
                    candidate = existing.iter().rev().find(|&&g| g < generation).copied();
                }
                for record in recovery.records.into_iter().skip(1) {
                    inner.apply(record);
                    replayed += 1;
                }
            }
            // Records with no leading marker: a store that has never
            // compacted, or a crash between a snapshot's rename and the
            // WAL truncation. Any snapshot files are stale; a full replay
            // is lossless.
            Some(_) => {
                let mut inner = store.inner.write();
                for record in recovery.records {
                    inner.apply(record);
                    replayed += 1;
                }
            }
            // Empty WAL. If snapshots exist, a compaction crashed between
            // the WAL truncation and the marker append — load the newest
            // valid generation and rewrite the marker below so the next
            // recovery has its base again.
            None => {
                let mut inner = store.inner.write();
                for &generation in existing.iter().rev() {
                    if let Some(records) =
                        snapshot::load(&snapshot::snapshot_path(&path, generation), generation)
                    {
                        for record in records {
                            inner.apply(record);
                        }
                        rewrite_marker = Some(generation);
                        break;
                    }
                    store.snap_metrics.fallbacks.inc();
                }
            }
        }
        store.wal_metrics.recovery_replayed_frames.add(replayed);
        *store.snapshot_gen.lock() = existing.last().copied().unwrap_or(0);

        let mut writer = if rewrite_marker.is_some() {
            Self::make_writer(&path, 0, plan, store.wal_metrics.clone())?
        } else {
            Self::make_writer(&path, recovery.clean_len, plan, store.wal_metrics.clone())?
        };
        if let Some(generation) = rewrite_marker {
            writer.append(&LogRecord::Snapshot { generation })?;
            writer.sync()?;
        } else {
            *store.wal_tail.lock() = TailUsage { frames: replayed, bytes: recovery.clean_len };
        }
        *store.wal.lock() = Some(writer);
        // The replication position the reopened store advertises: the WAL
        // lineage (leading marker generation, or 0 for a marker-less log)
        // and its durable extent. A rewritten marker is the whole log.
        let frames = if rewrite_marker.is_some() { 1 } else { total_frames };
        let generation = rewrite_marker.or(marked_gen).unwrap_or(0);
        let durable_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        *store.wal_frames.lock() = frames;
        *store.repl_pos.lock() = ReplPosition { generation, durable_len, durable_frames: frames };
        Ok(store)
    }

    /// A WAL writer positioned after the `clean_len`-byte durable prefix —
    /// through the fault layer when the store runs under a [`FaultPlan`].
    fn make_writer(
        path: &Path,
        clean_len: u64,
        plan: Option<FaultPlan>,
        metrics: WalMetrics,
    ) -> crate::Result<WalWriter> {
        match plan {
            None => Ok(WalWriter::open_truncated(path, clean_len)?.with_metrics(metrics)),
            Some(plan) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .truncate(false)
                    .write(true)
                    .open(path)
                    .map_err(WalError::from)?;
                file.set_len(clean_len).map_err(WalError::from)?;
                drop(file);
                let backend =
                    crate::fault::FaultFile::append_to(path, plan).map_err(WalError::from)?;
                Ok(WalWriter::over(Box::new(backend)).with_metrics(metrics))
            }
        }
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
        match self.wal_failure.lock().clone() {
            None => Ok(()),
            Some(message) => Err(StoreError::WalPoisoned { message }),
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
    /// primary shipped): decodes it, re-appends the *same* payload bytes to
    /// the local WAL — the resulting frame is byte-identical to the
    /// primary's, keeping the follower's log a byte-for-byte prefix of the
    /// primary's — and applies it in memory. Frames are buffered; call
    /// [`TraceStore::sync_wal`] to advance the durable position. A payload
    /// that does not decode, or a local durability failure, is an error
    /// (the follower treats either as grounds for re-sync).
    pub fn apply_replicated(&self, payload: &[u8]) -> crate::Result<()> {
        let record = codec::decode(payload)
            .map_err(|e| StoreError::Serialize(format!("replicated frame: {e}")))?;
        let mut guard = self.wal.lock();
        if self.path.is_some() {
            let Some(w) = guard.as_mut() else {
                drop(guard);
                self.durability()?;
                return Err(StoreError::WalPoisoned { message: "writer closed".into() });
            };
            let before = self.wal_metrics.bytes_written.get();
            if let Err(e) = w.append_payload(payload) {
                Self::poison(&mut guard, &self.wal_failure, e.to_string());
                drop(guard);
                return self.durability();
            }
            let mut tail = self.wal_tail.lock();
            tail.frames += 1;
            tail.bytes += self.wal_metrics.bytes_written.get() - before;
            drop(tail);
            *self.wal_frames.lock() += 1;
        }
        self.inner.write().apply(record);
        Ok(())
    }

    /// Fsyncs the WAL (advancing the durable replication position) and
    /// surfaces any durability failure as a typed error — the follower's
    /// per-chunk commit point.
    pub fn sync_wal(&self) -> crate::Result<()> {
        let mut guard = self.wal.lock();
        self.sync_locked(&mut guard);
        drop(guard);
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
        let Some(path) = self.path.clone() else { return Ok(()) };
        let mut guard = self.wal.lock();
        if guard.is_none() {
            // Already poisoned: there is no consistent durable tail to
            // compact into a snapshot.
            drop(guard);
            return self.durability();
        }
        let generation = *self.snapshot_gen.lock() + 1;
        let tmp = snapshot::tmp_path(&path);
        let size = match self.write_snapshot(&tmp, generation) {
            Ok(size) => size,
            Err(e) => {
                Self::poison(&mut guard, &self.wal_failure, e.to_string());
                return Err(e);
            }
        };
        // The directory is synced before the marker that names the file is
        // written: otherwise a power cut could keep the marker and lose the
        // rename.
        let renamed = std::fs::rename(&tmp, snapshot::snapshot_path(&path, generation))
            .and_then(|()| sync_dir(&path));
        if let Err(e) = renamed {
            let e = StoreError::Wal(WalError::from(e));
            Self::poison(&mut guard, &self.wal_failure, e.to_string());
            return Err(e);
        }
        // Retire the old writer *before* truncating: its append-mode
        // handle may still hold buffered frames, and dropping it later
        // would flush them after the marker. Flushing into the
        // about-to-be-truncated file is harmless — that state is in the
        // snapshot.
        drop(guard.take());
        // Truncate the WAL and plant the marker. A crash between the
        // rename above and the truncation leaves a marker-less WAL (full
        // replay ignoring snapshots); between the truncation and the
        // marker append, an empty WAL beside valid snapshots (recovery
        // loads the newest and rewrites the marker). Both are lossless.
        match Self::fresh_wal(&path, generation, self.fault_plan, self.wal_metrics.clone()) {
            Ok(w) => *guard = Some(w),
            Err(e) => {
                Self::poison(&mut guard, &self.wal_failure, e.to_string());
                return Err(e);
            }
        }
        *self.wal_tail.lock() = TailUsage::default();
        *self.snapshot_gen.lock() = generation;
        // The WAL is now exactly one synced marker frame on a new lineage.
        *self.wal_frames.lock() = 1;
        let durable_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        *self.repl_pos.lock() = ReplPosition { generation, durable_len, durable_frames: 1 };
        self.wal_metrics.compactions.inc();
        self.snap_metrics.snapshots.inc();
        self.snap_metrics.snapshot_bytes.record(size);
        if let Some(j) = self.journal() {
            j.record(prov_obs::JournalEvent::SnapshotWrite { generation, bytes: size });
        }
        drop(guard);
        for old in snapshot::generations(&path) {
            if old + 1 < generation {
                let _ = std::fs::remove_file(snapshot::snapshot_path(&path, old));
            }
        }
        Ok(())
    }

    /// Streams current state into `tmp` in the WAL frame format, bracketed
    /// by `Snapshot { generation }` markers: workflows and run headers
    /// first, then each run's rows as [`LogRecord::Batch`] frames of at
    /// most [`SNAPSHOT_BATCH_EVENTS`] events (xforms, then xfers), then the
    /// finish records. Snapshot bytes are not WAL throughput, so the
    /// writer gets standalone metrics; under a [`FaultPlan`] the write
    /// goes through a fresh fault handle (its budget relative to the
    /// snapshot's first byte), which is what lets torture sweeps crash
    /// mid-snapshot.
    fn write_snapshot(&self, tmp: &Path, generation: u64) -> crate::Result<u64> {
        let _ = std::fs::remove_file(tmp);
        let mut w = match self.fault_plan {
            None => WalWriter::open(tmp)?,
            Some(plan) => {
                let backend =
                    crate::fault::FaultFile::append_to(tmp, plan).map_err(WalError::from)?;
                WalWriter::over(Box::new(backend))
            }
        };
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
            let mut events = Vec::with_capacity(SNAPSHOT_BATCH_EVENTS);
            for info in inner.runs.values() {
                let Some(shard) = inner.shards.get(&info.id) else { continue };
                let xforms =
                    shard.xforms.iter().map(|row| inner.xform_to_event(row).map(TraceEvent::Xform));
                let xfers =
                    shard.xfers.iter().map(|row| inner.xfer_to_event(row).map(TraceEvent::Xfer));
                for event in xforms.chain(xfers) {
                    events.push(event?);
                    if events.len() == SNAPSHOT_BATCH_EVENTS {
                        w.append_batch(info.id, &events)?;
                        events.clear();
                    }
                }
                if !events.is_empty() {
                    w.append_batch(info.id, &events)?;
                    events.clear();
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

    /// A truncated WAL holding exactly one synced `Snapshot` marker frame.
    fn fresh_wal(
        path: &Path,
        generation: u64,
        plan: Option<FaultPlan>,
        metrics: WalMetrics,
    ) -> crate::Result<WalWriter> {
        let mut w = Self::make_writer(path, 0, plan, metrics)?;
        w.append(&LogRecord::Snapshot { generation })?;
        w.sync()?;
        Ok(w)
    }

    /// Sets (or clears) the automatic compaction policy. With a policy in
    /// place every recording call checks the pending WAL tail and
    /// snapshots once a bound is crossed, so crash recovery replays at
    /// most `max_frames` frames. Setting a policy runs an immediate check.
    pub fn set_compaction_policy(&self, policy: Option<CompactionPolicy>) {
        *self.compaction.lock() = policy;
        if policy.is_some() {
            self.maybe_compact();
        }
    }

    /// The active automatic compaction policy, if any.
    pub fn compaction_policy(&self) -> Option<CompactionPolicy> {
        *self.compaction.lock()
    }

    /// Snapshot lifecycle metrics (counts, sizes, recovery fallbacks).
    pub fn snapshot_metrics(&self) -> &SnapshotMetrics {
        &self.snap_metrics
    }

    /// Snapshots if the pending WAL tail has crossed the configured
    /// policy. Failures are not surfaced here — they have already poisoned
    /// the writer, and [`TraceStore::durability`] reports them.
    fn maybe_compact(&self) {
        let Some(policy) = *self.compaction.lock() else { return };
        let due = {
            let tail = self.wal_tail.lock();
            policy.due(tail.frames, tail.bytes)
        };
        if due {
            let _ = self.snapshot();
        }
    }

    // Durability failures must not pass silently, but the `TraceSink`
    // recording methods cannot return errors and panicking would take down
    // the engine mid-run. Instead the writer is *poisoned*: the first
    // failure shuts it down (no further appends can land past an
    // inconsistent tail), the message is retained, and
    // [`TraceStore::durability`] reports it as a typed `StoreError`.
    fn append_locked(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, Option<WalWriter>>,
        record: &LogRecord,
    ) {
        if let Some(w) = guard.as_mut() {
            let before = self.wal_metrics.bytes_written.get();
            match w.append(record) {
                Ok(()) => {
                    let mut tail = self.wal_tail.lock();
                    tail.frames += 1;
                    tail.bytes += self.wal_metrics.bytes_written.get() - before;
                    drop(tail);
                    *self.wal_frames.lock() += 1;
                }
                Err(e) => Self::poison(guard, &self.wal_failure, e.to_string()),
            }
        }
    }

    /// Group commit: one WAL frame for a whole event batch.
    fn append_batch_locked(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, Option<WalWriter>>,
        run: RunId,
        events: &[TraceEvent],
    ) {
        if let Some(w) = guard.as_mut() {
            let before = self.wal_metrics.bytes_written.get();
            match w.append_batch(run, events) {
                Ok(()) => {
                    let mut tail = self.wal_tail.lock();
                    tail.frames += 1;
                    tail.bytes += self.wal_metrics.bytes_written.get() - before;
                    drop(tail);
                    *self.wal_frames.lock() += 1;
                }
                Err(e) => Self::poison(guard, &self.wal_failure, e.to_string()),
            }
        }
    }

    /// Shuts the writer down after a durability failure, retaining the
    /// first failure message for [`TraceStore::durability`].
    fn poison(
        guard: &mut parking_lot::MutexGuard<'_, Option<WalWriter>>,
        failure: &Mutex<Option<String>>,
        message: String,
    ) {
        **guard = None;
        let mut f = failure.lock();
        if f.is_none() {
            *f = Some(message);
        }
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
        let mut guard = self.wal.lock();
        {
            let inner = self.inner.read();
            if !inner.runs.contains_key(&run) {
                return Err(StoreError::UnknownRun(run));
            }
        }
        let had_writer = guard.is_some();
        self.append_locked(&mut guard, &LogRecord::DropRun { run });
        self.inner.write().apply(LogRecord::DropRun { run });
        self.sync_locked(&mut guard);
        if had_writer && guard.is_none() {
            drop(guard);
            return self.durability();
        }
        drop(guard);
        self.maybe_compact();
        Ok(())
    }

    /// Registers (or overwrites) a workflow specification, making the
    /// database self-contained: INDEXPROJ consumers can fetch the spec of
    /// any recorded workflow by name. The payload is opaque JSON (the
    /// store does not depend on the dataflow crate).
    pub fn register_workflow(&self, name: &ProcessorName, json: String) {
        let record = LogRecord::Workflow { name: name.clone(), json };
        let mut guard = self.wal.lock();
        self.append_locked(&mut guard, &record);
        self.inner.write().apply(record);
        self.sync_locked(&mut guard);
        drop(guard);
        self.maybe_compact();
    }

    /// Syncs the WAL through an already-held guard, poisoning the writer
    /// on failure (see [`TraceStore::durability`]). A silent
    /// `let _ = sync()` would report a trace as recorded that never
    /// reached the disk.
    fn sync_locked(&self, guard: &mut parking_lot::MutexGuard<'_, Option<WalWriter>>) {
        if let Some(w) = guard.as_mut() {
            if let Err(e) = w.sync() {
                Self::poison(guard, &self.wal_failure, e.to_string());
            } else {
                // Everything appended so far is now durable: advance the
                // position replicas are allowed to read up to.
                if let Some(path) = &self.path {
                    if let Ok(meta) = std::fs::metadata(path) {
                        let mut pos = self.repl_pos.lock();
                        pos.durable_len = meta.len();
                        pos.durable_frames = *self.wal_frames.lock();
                    }
                }
                if let Some(j) = self.journal() {
                    // Frames/bytes appended since the last snapshot (the
                    // tail this sync made durable).
                    let tail = self.wal_tail.lock();
                    j.record(prov_obs::JournalEvent::WalSync {
                        frames: tail.frames,
                        bytes: tail.bytes,
                    });
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
        let inner = self.inner.read();
        if inner.values.is_empty() {
            return 0;
        }
        inner.values.len()
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

    fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::BeginRun { run, workflow } => {
                self.runs.insert(
                    run,
                    RunInfo { id: run, workflow, finished: false, xform_count: 0, xfer_count: 0 },
                );
                self.next_run = self.next_run.max(run.0 + 1);
            }
            LogRecord::Xform { run, event } => self.insert_xform(run, &event),
            LogRecord::Xfer { run, event } => self.insert_xfer(run, &event),
            LogRecord::Batch { run, events } => {
                for event in &events {
                    match event {
                        TraceEvent::Xform(e) => self.insert_xform(run, e),
                        TraceEvent::Xfer(e) => self.insert_xfer(run, e),
                    }
                }
            }
            LogRecord::FinishRun { run } => {
                if let Some(info) = self.runs.get_mut(&run) {
                    info.finished = true;
                }
            }
            LogRecord::DropRun { run } => {
                // The run's rows, indexes, and value entries all live in
                // its shard: removing it reclaims everything at once (a
                // pinned view keeps its `Arc` alive until it drops).
                self.runs.remove(&run);
                self.shards.remove(&run);
            }
            LogRecord::Workflow { name, json } => {
                // Identical bytes (every `IngestBegin` re-registers its
                // spec) keep the registration's identity.
                if self.workflows.get(&name).map(|old| &**old) != Some(json.as_str()) {
                    self.workflows.insert(name, json.into());
                }
            }
            // Markers delimit recovery phases; replay itself ignores them.
            LogRecord::Snapshot { .. } => {}
        }
    }

    // The insert paths mutate the shared tables and the run's shard via
    // `Arc::make_mut`: while no `ReadView` is pinned the refcount is one
    // and every write is in place (no clone, no allocation beyond the row
    // itself); a live pin makes exactly the first subsequent write clone
    // the pinned structure, which is what gives views snapshot isolation.
    // The three `make_mut` calls borrow disjoint fields, so they coexist.

    fn insert_xform(&mut self, run: RunId, event: &XformEvent) {
        let id = self.next_xform_id;
        self.next_xform_id += 1;
        let symbols = Arc::make_mut(&mut self.symbols);
        let values = Arc::make_mut(&mut self.values);
        let shard = Arc::make_mut(self.shards.entry(run).or_default());
        shard.insert_xform(id, run, event, symbols, values);
        if let Some(info) = self.runs.get_mut(&run) {
            info.xform_count += 1;
        }
    }

    fn insert_xfer(&mut self, run: RunId, event: &XferEvent) {
        let id = self.next_xfer_id;
        self.next_xfer_id += 1;
        let symbols = Arc::make_mut(&mut self.symbols);
        let values = Arc::make_mut(&mut self.values);
        let shard = Arc::make_mut(self.shards.entry(run).or_default());
        shard.insert_xfer(id, run, event, symbols, values);
        if let Some(info) = self.runs.get_mut(&run) {
            info.xfer_count += 1;
        }
    }

    fn xform_to_event(&self, row: &XformRow) -> Result<XformEvent, StoreError> {
        let binding = |p: &XformPortRow| -> Result<prov_engine::PortBinding, StoreError> {
            Ok(prov_engine::PortBinding {
                port: self.symbols.resolve(p.port),
                index: p.index.clone(),
                value: self
                    .values
                    .get(p.value)
                    .cloned()
                    .ok_or(StoreError::DanglingValue(p.value))?,
            })
        };
        Ok(XformEvent {
            processor: ProcessorName(self.symbols.resolve(row.processor)),
            invocation: row.invocation,
            inputs: row.inputs().map(binding).collect::<Result<_, _>>()?,
            outputs: row.outputs().map(binding).collect::<Result<_, _>>()?,
        })
    }

    fn xfer_to_event(&self, row: &XferRow) -> Result<XferEvent, StoreError> {
        Ok(XferEvent {
            src: PortRef {
                processor: ProcessorName(self.symbols.resolve(row.src_processor)),
                port: self.symbols.resolve(row.src_port),
            },
            src_index: row.src_index.clone(),
            dst: PortRef {
                processor: ProcessorName(self.symbols.resolve(row.dst_processor)),
                port: self.symbols.resolve(row.dst_port),
            },
            dst_index: row.dst_index.clone(),
            value: self
                .values
                .get(row.value)
                .cloned()
                .ok_or(StoreError::DanglingValue(row.value))?,
        })
    }
}

// Every method holds the `wal` lock across the append *and* the in-memory
// insert (see the lock-order note on [`TraceStore`]), then checks the
// compaction policy once the locks are released.
impl TraceSink for TraceStore {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        let mut guard = self.wal.lock();
        let mut inner = self.inner.write();
        let run = RunId(inner.next_run);
        inner.apply(LogRecord::BeginRun { run, workflow: clone_name(workflow) });
        drop(inner);
        self.append_locked(
            &mut guard,
            &LogRecord::BeginRun { run, workflow: clone_name(workflow) },
        );
        drop(guard);
        self.maybe_compact();
        run
    }

    fn record_xform(&self, run: RunId, event: XformEvent) {
        let mut guard = self.wal.lock();
        self.append_locked(&mut guard, &LogRecord::Xform { run, event: event.clone() });
        self.inner.write().insert_xform(run, &event);
        drop(guard);
        self.maybe_compact();
    }

    fn record_xfer(&self, run: RunId, event: XferEvent) {
        let mut guard = self.wal.lock();
        self.append_locked(&mut guard, &LogRecord::Xfer { run, event: event.clone() });
        self.inner.write().insert_xfer(run, &event);
        drop(guard);
        self.maybe_compact();
    }

    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        // One WAL frame, then one write-lock acquisition for the whole
        // batch — the group commit the per-event path can't amortise.
        let mut guard = self.wal.lock();
        self.append_batch_locked(&mut guard, run, &events);
        {
            let mut inner = self.inner.write();
            for event in &events {
                match event {
                    TraceEvent::Xform(e) => inner.insert_xform(run, e),
                    TraceEvent::Xfer(e) => inner.insert_xfer(run, e),
                }
            }
        }
        drop(guard);
        self.maybe_compact();
    }

    fn finish_run(&self, run: RunId) {
        let mut guard = self.wal.lock();
        self.inner.write().apply(LogRecord::FinishRun { run });
        self.append_locked(&mut guard, &LogRecord::FinishRun { run });
        // Durability failure poisons the writer instead of panicking;
        // `durability()` surfaces it as a typed error.
        self.sync_locked(&mut guard);
        drop(guard);
        self.maybe_compact();
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

fn clone_name(n: &ProcessorName) -> ProcessorName {
    n.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_engine::PortBinding;

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
        let s = TraceStore::open(&path).unwrap();
        // FinishRun frame was torn: run exists, unfinished, xform intact.
        assert_eq!(s.runs().len(), 1);
        assert!(!s.runs()[0].finished);
        assert_eq!(s.trace_record_count(RunId(0)), 1);
        // Appending after truncation keeps the log clean.
        let r2 = s.begin_run(&"wf".into());
        s.finish_run(r2);
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
    fn auto_compaction_bounds_recovery_replay() {
        let path = tmp_snap("auto-compact");
        {
            let s = TraceStore::open(&path).unwrap();
            s.set_compaction_policy(Some(CompactionPolicy::frames(4)));
            let r = s.begin_run(&"wf".into());
            for i in 0..40 {
                s.record_xfer(r, xfer(("A", "y"), ("B", "x"), &[i], "v"));
            }
            s.finish_run(r);
            s.durability().unwrap();
            assert!(s.wal_metrics().compactions.get() > 1);
            assert_eq!(s.snapshot_metrics().snapshots.get(), s.wal_metrics().compactions.get());
        }
        let s = TraceStore::open(&path).unwrap();
        // The pending tail at any crash point is bounded by the policy.
        assert!(
            s.wal_metrics().recovery_replayed_frames.get() <= 4,
            "replayed {} frames",
            s.wal_metrics().recovery_replayed_frames.get()
        );
        assert_eq!(s.trace_record_count(RunId(0)), 40);
        assert!(s.runs()[0].finished);
        // At most two generations are retained.
        assert!(crate::snapshot::generations(&path).len() <= 2);
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
}
