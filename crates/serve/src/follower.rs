//! The follower side: replay the primary's WAL continuously, survive
//! kills and primary rewrites.
//!
//! A [`Follower`] owns a local [`TraceStore`] whose WAL is kept a
//! byte-for-byte prefix of the primary's: every shipped frame payload is
//! re-appended through [`TraceStore::apply_replicated`] (identical bytes →
//! identical frames) and fsynced per chunk, so a killed follower recovers
//! its durable prefix and resumes from exactly that offset. When the
//! handshake or a damaged chunk proves the local log is *not* a prefix
//! anymore, the follower re-seeds ([`TraceStore::reseed`]) — either from a
//! shipped snapshot ([`protocol::TAG_BOOTSTRAP`]) or a from-zero replay.
//!
//! Staleness is tracked as `(primary durable frames) − (local durable
//! frames)` from the primary's heartbeats and persisted to a
//! `<db>.repl.json` sidecar (where `tprov metrics` picks up
//! `repl.lag_frames` / `repl.lag_bytes`). The follower answers no queries
//! itself: [`ProvServer::follow`](crate::ProvServer::follow) serves its
//! [`Follower::store`] read-only and reports [`Follower::status`]'s
//! position with each answer.

use std::io::{self, Read};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use prov_engine::{Backoff, Clock, RetryPolicy, SystemClock};
use prov_obs::{Journal, JournalEvent};
use prov_store::{
    prefix_crc, FaultPlan, FaultReader, ReplPosition, TailState, TraceStore, WalCursor,
};

use crate::protocol::{self, BootstrapHeader, Hello, Resync, StreamFrom};

/// Where a follower of the store at `db` persists its replication status
/// (read back by `tprov metrics` for the `repl.*` gauges).
pub fn status_path(db: &Path) -> PathBuf {
    PathBuf::from(format!("{}.repl.json", db.display()))
}

/// Reconnection and fault-injection knobs for a follower.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Reconnect backoff schedule; attempts are 1-based and reset on every
    /// successful connect.
    pub backoff: RetryPolicy,
    /// Time source for the backoff sleeps (swap in a `VirtualClock` under
    /// test).
    pub clock: Arc<dyn Clock>,
    /// When set, the *first* established session's socket reads go
    /// through a [`FaultReader`] carrying this plan — the torture suite's
    /// way of tearing the stream mid-frame or mid-bootstrap. Later
    /// sessions run clean, so the follower is expected to heal.
    pub read_fault: Option<FaultPlan>,
    /// Heartbeat/idle window in milliseconds: a session that receives *no*
    /// frame of any kind (heartbeat, WAL chunk, resync...) for this long
    /// is declared stalled — the follower marks itself disconnected with
    /// unknown lag (so bounded queries refuse) and re-enters the
    /// reconnect backoff. `0` disables stall detection. Measured on
    /// [`FollowerConfig::clock`], so a `VirtualClock` drives it
    /// deterministically under test.
    pub idle_timeout_ms: u64,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            backoff: RetryPolicy::attempts(u32::MAX)
                .with_backoff(Backoff::Exponential { base_micros: 50_000, max_micros: 2_000_000 })
                .with_jitter(0x0F01_10E5),
            clock: Arc::new(SystemClock),
            read_fault: None,
            idle_timeout_ms: 10_000,
        }
    }
}

/// A follower's replication state, serialized to the `<db>.repl.json`
/// sidecar after every status change.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplStatus {
    /// Local WAL lineage (leading snapshot marker generation, 0 if none).
    pub generation: u64,
    /// Local durable WAL length in bytes.
    pub offset: u64,
    /// Local durable WAL frame count.
    pub frames: u64,
    /// Primary's lineage per its last heartbeat.
    pub primary_generation: u64,
    /// Primary's durable length per its last heartbeat.
    pub primary_offset: u64,
    /// Primary's durable frame count per its last heartbeat.
    pub primary_frames: u64,
    /// `primary_frames − frames` (saturating).
    pub lag_frames: u64,
    /// `primary_offset − offset` (saturating).
    pub lag_bytes: u64,
    /// A replication session is currently established.
    pub connected: bool,
    /// At least one heartbeat has arrived since the follower started —
    /// until then lag is unknown (`u64::MAX`), and a bounded query is
    /// refused.
    pub heard_from_primary: bool,
    /// Resync round-trips (lineage changes, damaged chunks).
    pub resyncs: u64,
    /// Connection attempts after the first.
    pub reconnects: u64,
    /// Snapshot bootstraps installed.
    pub bootstraps: u64,
}

/// Why a replication session ended (internal to the reconnect loop).
enum SessionEnd {
    /// [`Follower::stop`] was called.
    Stopped,
    /// Socket error / peer hung up — or the primary stalled past the
    /// heartbeat window: reconnect with backoff.
    Disconnected,
    /// Local log proven divergent: reconnect immediately, demanding a
    /// bootstrap.
    NeedBootstrap,
}

/// A replicating read replica of a remote primary.
pub struct Follower {
    db: PathBuf,
    store: RwLock<Arc<TraceStore>>,
    status: Mutex<ReplStatus>,
    status_file: PathBuf,
    stop: AtomicBool,
    current: Mutex<Option<TcpStream>>,
    journal: Journal,
}

impl std::fmt::Debug for Follower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower").field("db", &self.db).finish()
    }
}

impl Follower {
    /// Opens (or creates) the local store at `db`. Normal WAL recovery
    /// runs first, so a killed follower restarts from its durable prefix.
    /// [`JournalEvent::FollowerResync`] events are recorded to `journal`.
    pub fn open(db: impl AsRef<Path>, journal: Journal) -> prov_store::Result<Arc<Follower>> {
        let db = db.as_ref().to_path_buf();
        let store = TraceStore::open(&db)?;
        let pos = store.repl_position();
        let status = ReplStatus {
            generation: pos.generation,
            offset: pos.durable_len,
            frames: pos.durable_frames,
            // No heartbeat heard yet: lag is the unknown sentinel.
            lag_frames: u64::MAX,
            lag_bytes: u64::MAX,
            ..ReplStatus::default()
        };
        let status_file = status_path(&db);
        let follower = Arc::new(Follower {
            db,
            store: RwLock::new(Arc::new(store)),
            status: Mutex::new(status),
            status_file,
            stop: AtomicBool::new(false),
            current: Mutex::new(None),
            journal,
        });
        follower.write_sidecar();
        Ok(follower)
    }

    /// The current store (swapped atomically on bootstrap; queries holding
    /// an older `Arc` finish against the pre-bootstrap state).
    pub fn store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.store.read())
    }

    /// A copy of the current replication status.
    pub fn status(&self) -> ReplStatus {
        self.status.lock().clone()
    }

    /// Starts the replication loop against `primary`: the `host:port` of
    /// the `tprov serve` daemon that owns the primary database.
    pub fn start(
        self: &Arc<Self>,
        primary: impl Into<String>,
        config: FollowerConfig,
    ) -> JoinHandle<()> {
        let me = Arc::clone(self);
        let primary = primary.into();
        std::thread::spawn(move || me.run(&primary, &config))
    }

    /// Asks the replication loop to exit and unblocks any in-flight socket
    /// read.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(s) = self.current.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Blocks until the follower is connected, has heard a heartbeat, and
    /// lags the primary by zero frames — or `timeout` elapses. Returns
    /// whether it caught up.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.status();
            if s.connected && s.heard_from_primary && s.lag_frames == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn run(&self, primary: &str, config: &FollowerConfig) {
        let mut attempt: u32 = 0;
        let mut force_bootstrap = false;
        let mut fault = config.read_fault;
        while !self.stopped() {
            if let Ok(stream) = TcpStream::connect(primary) {
                attempt = 0;
                let end = self.session(stream, &mut force_bootstrap, fault.take(), config);
                *self.current.lock() = None;
                self.with_status(|s| s.connected = false);
                match end {
                    SessionEnd::Stopped => break,
                    SessionEnd::Disconnected => {
                        self.with_status(|s| s.reconnects += 1);
                    }
                    SessionEnd::NeedBootstrap => {
                        force_bootstrap = true;
                        self.with_status(|s| s.reconnects += 1);
                        continue; // no backoff: the primary is up, we just diverged
                    }
                }
            }
            if self.stopped() {
                break;
            }
            attempt = attempt.saturating_add(1);
            config.clock.sleep_micros(config.backoff.delay_micros(attempt, 0));
        }
        *self.current.lock() = None;
        self.with_status(|s| s.connected = false);
    }

    /// One connected session: hello, then apply whatever the primary sends
    /// until the socket dies, a resync bounces us back to hello, local
    /// divergence demands a bootstrap, or the primary stalls past the
    /// heartbeat window.
    fn session(
        &self,
        stream: TcpStream,
        force: &mut bool,
        fault: Option<FaultPlan>,
        config: &FollowerConfig,
    ) -> SessionEnd {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        *self.current.lock() = stream.try_clone().ok();
        let Ok(mut writer) = stream.try_clone() else { return SessionEnd::Disconnected };
        let mut reader: Box<dyn Read> = match fault {
            Some(plan) => Box::new(FaultReader::new(stream, plan)),
            None => Box::new(stream),
        };
        let idle_micros = config.idle_timeout_ms.saturating_mul(1000);
        let mut last_heard = config.clock.now_micros();

        'handshake: loop {
            if self.stopped() {
                return SessionEnd::Stopped;
            }
            let hello = self.make_hello(*force);
            if protocol::write_json(&mut writer, protocol::TAG_HELLO, &hello).is_err() {
                return SessionEnd::Disconnected;
            }
            loop {
                if self.stopped() {
                    return SessionEnd::Stopped;
                }
                let (tag, payload) = match protocol::read_msg(&mut reader) {
                    Ok(Some(msg)) => msg,
                    Ok(None) => return SessionEnd::Disconnected,
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        // Stall detection: a primary that accepted us but
                        // has gone silent (wedged, partitioned) must not
                        // leave this replica claiming liveness — mark lag
                        // unknown and retry the connection under backoff.
                        if idle_micros > 0
                            && config.clock.now_micros().saturating_sub(last_heard) > idle_micros
                        {
                            self.with_status(|s| {
                                s.connected = false;
                                s.heard_from_primary = false;
                            });
                            return SessionEnd::Disconnected;
                        }
                        continue;
                    }
                    Err(_) => return SessionEnd::Disconnected,
                };
                last_heard = config.clock.now_micros();
                match tag {
                    protocol::TAG_STREAM_FROM => {
                        let Ok(sf) = protocol::decode::<StreamFrom>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        let local = self.store().repl_position().durable_len;
                        if sf.offset == 0 && local > 0 {
                            // Full replay of a marker-less log: wipe first.
                            if self.reseed(None, "from-zero replay").is_err() {
                                return SessionEnd::Disconnected;
                            }
                        } else if sf.offset != 0 && sf.offset != local {
                            // The primary agreed to an offset we don't
                            // have — protocol anomaly; demand a re-seed.
                            self.note_resync(sf.generation, local, "offset anomaly");
                            return SessionEnd::NeedBootstrap;
                        }
                        *force = false;
                        self.with_status(|s| {
                            s.generation = sf.generation;
                            s.connected = true;
                        });
                    }
                    protocol::TAG_FRAMES => {
                        if let Err(reason) = self.apply_chunk(&payload) {
                            let pos = self.store().repl_position();
                            self.note_resync(pos.generation, pos.durable_len, &reason);
                            return SessionEnd::NeedBootstrap;
                        }
                        self.refresh_local();
                    }
                    protocol::TAG_HEARTBEAT => {
                        let Ok(pos) = protocol::decode::<ReplPosition>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        self.with_status(|s| {
                            s.heard_from_primary = true;
                            s.connected = true;
                            s.primary_generation = pos.generation;
                            s.primary_offset = pos.durable_len;
                            s.primary_frames = pos.durable_frames;
                        });
                    }
                    protocol::TAG_BOOTSTRAP => {
                        let Ok(header) = protocol::decode::<BootstrapHeader>(&payload) else {
                            return SessionEnd::Disconnected;
                        };
                        let Ok(body) = protocol::read_raw(&mut reader, header.len) else {
                            return SessionEnd::Disconnected;
                        };
                        let base = Some((header.generation, body.as_slice()));
                        if self.reseed(base, "snapshot bootstrap").is_err() {
                            return SessionEnd::Disconnected;
                        }
                        *force = false;
                        continue 'handshake;
                    }
                    protocol::TAG_RESYNC => {
                        let reason = protocol::decode::<Resync>(&payload)
                            .map(|r| r.reason)
                            .unwrap_or_else(|_| "resync".into());
                        let pos = self.store().repl_position();
                        self.note_resync(pos.generation, pos.durable_len, &reason);
                        continue 'handshake;
                    }
                    // The primary is a serve daemon: its session greeting
                    // carries nothing the stream needs.
                    protocol::TAG_WELCOME => {}
                    // A refused session (`busy`, `read_only`,
                    // `shutting_down`, ...) is retried under the backoff,
                    // like a failed connect; unknown tags likewise.
                    _ => return SessionEnd::Disconnected,
                }
            }
        }
    }

    /// The follower's handshake offer: its durable position plus the
    /// CRC-32 of its entire durable WAL prefix (the primary verifies the
    /// prefix by content, not position — see the protocol module docs).
    fn make_hello(&self, force: bool) -> Hello {
        let pos = self.store().repl_position();
        let prefix_crc = prefix_crc(&self.db, pos.durable_len).unwrap_or(0);
        Hello {
            generation: pos.generation,
            offset: pos.durable_len,
            frames: pos.durable_frames,
            prefix_crc,
            force_bootstrap: force,
        }
    }

    /// Re-frames and applies every WAL frame in `chunk`, then fsyncs. Any
    /// damage (CRC, torn frame, undecodable payload, local WAL poisoning)
    /// is an error — grounds for re-seed.
    fn apply_chunk(&self, chunk: &[u8]) -> Result<(), String> {
        let store = self.store();
        let mut cursor = WalCursor::over(chunk);
        loop {
            match cursor.next_frame() {
                Ok(Some(_)) => {
                    store.apply_replicated(cursor.payload()).map_err(|e| e.to_string())?;
                }
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        if cursor.tail() != TailState::Clean {
            return Err(format!("chunk damaged in flight: {:?}", cursor.tail()));
        }
        store.sync_wal().map_err(|e| e.to_string())
    }

    /// Replaces the local store with `base` — a shipped snapshot — or,
    /// without one, with an empty store ahead of a from-zero replay.
    /// Queries holding the old store finish against it.
    fn reseed(&self, base: Option<(u64, &[u8])>, reason: &str) -> prov_store::Result<()> {
        let mut guard = self.store.write();
        let store = TraceStore::reseed(&self.db, base)?;
        let pos = store.repl_position();
        *guard = Arc::new(store);
        drop(guard);
        if base.is_some() {
            self.with_status(|s| s.bootstraps += 1);
        }
        self.refresh_local();
        self.journal.record(JournalEvent::FollowerResync {
            generation: pos.generation,
            offset: pos.durable_len,
            reason: reason.into(),
        });
        Ok(())
    }

    /// Pulls the local durable position into the status (and sidecar).
    fn refresh_local(&self) {
        let pos = self.store().repl_position();
        self.with_status(|s| {
            s.generation = pos.generation;
            s.offset = pos.durable_len;
            s.frames = pos.durable_frames;
        });
    }

    /// Counts a resync and records the journal event.
    fn note_resync(&self, generation: u64, offset: u64, reason: &str) {
        self.with_status(|s| s.resyncs += 1);
        self.journal.record(JournalEvent::FollowerResync {
            generation,
            offset,
            reason: reason.into(),
        });
    }

    /// Mutates the status under its lock, recomputes lag, persists the
    /// sidecar. Lag is only meaningful once a heartbeat has been heard —
    /// before that (and again after a stall resets `heard_from_primary`)
    /// it is reported as the unknown sentinel `u64::MAX`, which exceeds
    /// every staleness bound a client can ask for.
    fn with_status(&self, f: impl FnOnce(&mut ReplStatus)) {
        {
            let mut s = self.status.lock();
            f(&mut s);
            if s.heard_from_primary {
                s.lag_frames = s.primary_frames.saturating_sub(s.frames);
                s.lag_bytes = s.primary_offset.saturating_sub(s.offset);
            } else {
                s.lag_frames = u64::MAX;
                s.lag_bytes = u64::MAX;
            }
        }
        self.write_sidecar();
    }

    /// Atomically rewrites `<db>.repl.json` with the current status.
    fn write_sidecar(&self) {
        let status = self.status.lock().clone();
        let Ok(json) = serde_json::to_string(&status) else { return };
        let tmp = PathBuf::from(format!("{}.tmp", self.status_file.display()));
        if std::fs::write(&tmp, json.as_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &self.status_file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_primary_trips_the_heartbeat_window() {
        use prov_engine::VirtualClock;
        use std::net::TcpListener;

        // A "primary" that accepts connections and then goes silent —
        // never a STREAM_FROM, never a heartbeat.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop_hold = Arc::new(AtomicBool::new(false));
        let hold_flag = Arc::clone(&stop_hold);
        let hold = std::thread::spawn(move || {
            let mut held = Vec::new();
            while !hold_flag.load(Ordering::Relaxed) {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let db = std::env::temp_dir().join(format!("stalled_primary_{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let follower = Follower::open(&db, Journal::disabled()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let config = FollowerConfig {
            idle_timeout_ms: 50,
            clock: clock.clone(),
            ..FollowerConfig::default()
        };
        let handle = follower.start(&addr, config);

        // Wait for the session to establish (hello written, reader idle).
        std::thread::sleep(Duration::from_millis(100));
        // Advance the injected clock past the heartbeat window: the next
        // poll tick must declare the primary stalled.
        clock.sleep_micros(60 * 1000);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let s = follower.status();
            if s.reconnects >= 1 {
                assert!(!s.heard_from_primary, "stall must reset heard_from_primary");
                assert_eq!(s.lag_frames, u64::MAX, "stalled lag is the unknown sentinel");
                break;
            }
            assert!(Instant::now() < deadline, "stall was never detected: {s:?}");
            std::thread::sleep(Duration::from_millis(5));
        }

        follower.stop();
        let _ = handle.join();
        stop_hold.store(true, Ordering::Relaxed);
        let _ = hold.join();
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(status_path(&db));
    }
}
