//! The primary side of the WAL stream: answer a follower's hello with a
//! start point and ship the durable WAL prefix.
//!
//! This module owns no socket. The daemon that owns the database accepts
//! a follower like any other session, decodes its
//! [`protocol::TAG_HELLO`] and hands the session's writer to [`ship`], so
//! one listener serves queries, ingest and replication.
//!
//! The primary never sends bytes past its fsynced length
//! ([`TraceStore::repl_position`]) — a follower can therefore never hold
//! state the primary might lose in a crash. When the primary's WAL
//! lineage changes under a live stream (a snapshot rewrote the log) the
//! stream ends with a [`protocol::Resync`] and the follower re-offers its
//! prefix.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use prov_obs::{Journal, JournalEvent};
use prov_store::{prefix_crc, valid_snapshot, TraceStore, WalCursor};

use crate::protocol::{self, BootstrapHeader, Hello, Resync, StreamFrom};

/// Target size of one [`protocol::TAG_FRAMES`] chunk (whole frames are
/// never split, so a chunk may exceed this by one frame).
const CHUNK_BYTES: usize = 32 * 1024;

/// How long a caught-up stream sleeps before re-checking the durable
/// position (and the stop flag).
const POLL: Duration = Duration::from_millis(20);

/// How a [`ship`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shipped {
    /// The socket failed, or `stop` was raised: end the session.
    Closed,
    /// A resync or a snapshot bootstrap went out: the follower sends a
    /// fresh hello on the same connection.
    Rehello,
}

/// Answers one follower `hello` on `writer` and ships `store`'s durable
/// WAL until the stream ends. The follower's log must be a byte prefix of
/// ours — checked by content, not trusted by position — to resume at its
/// offset; otherwise a marker-less log is replayed from zero and a
/// compacted one is bootstrapped from its snapshot file.
/// [`JournalEvent::ReplFrameShipped`] events are recorded to `journal` as
/// chunks go out; a caught-up stream checks `stop` every poll tick.
pub(crate) fn ship<W: Write>(
    store: &TraceStore,
    hello: &Hello,
    writer: &mut W,
    stop: &AtomicBool,
    journal: &Journal,
) -> Shipped {
    let Some(wal) = store.wal_path() else { return Shipped::Closed };
    // Generation 0 is a marker-less log; a compacted one leads with the
    // marker of its snapshot's generation.
    let pos = store.repl_position();
    let compacted = pos.generation > 0;
    // A from-zero stream only carries full state when the log is
    // marker-less.
    let matches = !hello.force_bootstrap
        && hello.offset <= pos.durable_len
        && (hello.offset > 0 || !compacted)
        && prefix_crc(wal, hello.offset).is_ok_and(|crc| crc == hello.prefix_crc);
    if !matches && compacted {
        // The follower installs the snapshot and re-hellos.
        return match send_bootstrap(store, writer, wal) {
            Ok(()) => Shipped::Rehello,
            Err(_) => Shipped::Closed,
        };
    }
    // Either the prefix is proven, or the log is marker-less and a
    // from-zero replay is lossless.
    let start = if matches { hello.offset } else { 0 };
    let from = StreamFrom { generation: pos.generation, offset: start };
    if protocol::write_json(writer, protocol::TAG_STREAM_FROM, &from).is_err() {
        return Shipped::Closed;
    }
    stream_frames(store, writer, wal, start, pos.generation, stop, journal)
}

/// Ships the snapshot file backing the WAL's leading marker, cutting a
/// fresh snapshot first if the marked generation's file is missing or
/// fails validation.
fn send_bootstrap<W: Write>(store: &TraceStore, writer: &mut W, wal: &Path) -> io::Result<()> {
    let mut generation = store.repl_position().generation;
    if !valid_snapshot(&TraceStore::snapshot_file_for(wal, generation), generation) {
        // The marked snapshot is unusable: cut a new one (this rewrites the
        // WAL to a fresh marker; live streams will resync to it).
        store.snapshot().map_err(|e| io::Error::other(format!("snapshot: {e}")))?;
        generation = store.repl_position().generation;
    }
    let file = File::open(TraceStore::snapshot_file_for(wal, generation))?;
    let len = file.metadata()?.len();
    protocol::write_json(writer, protocol::TAG_BOOTSTRAP, &BootstrapHeader { generation, len })?;
    if io::copy(&mut file.take(len), writer)? < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "snapshot shrank mid-ship"));
    }
    writer.flush()
}

fn stream_frames<W: Write>(
    store: &TraceStore,
    writer: &mut W,
    wal: &Path,
    start: u64,
    start_gen: u64,
    stop: &AtomicBool,
    journal: &Journal,
) -> Shipped {
    let resync = |writer: &mut W, generation: u64, reason: &str| {
        let _ = protocol::write_json(
            writer,
            protocol::TAG_RESYNC,
            &Resync { generation, reason: reason.into() },
        );
        Shipped::Rehello
    };
    let mut sent = start;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Shipped::Closed;
        }
        let pos = store.repl_position();
        if pos.generation != start_gen {
            return resync(writer, pos.generation, "wal lineage changed");
        }
        if sent < pos.durable_len {
            let Ok((chunk, frames, next)) = read_chunk(wal, sent, pos.durable_len) else {
                return resync(writer, pos.generation, "wal unreadable");
            };
            if frames == 0 {
                // Durable region not advancing under the cursor: the log
                // was rewritten beneath us without (yet) a generation bump.
                return resync(writer, pos.generation, "wal rewritten");
            }
            let bytes = chunk.len() as u64;
            if protocol::write_msg(writer, protocol::TAG_FRAMES, &chunk).is_err() {
                return Shipped::Closed;
            }
            sent = next;
            journal.record(JournalEvent::ReplFrameShipped { frames, bytes, offset: sent });
            if protocol::write_json(writer, protocol::TAG_HEARTBEAT, &pos).is_err() {
                return Shipped::Closed;
            }
        } else {
            if protocol::write_json(writer, protocol::TAG_HEARTBEAT, &pos).is_err() {
                return Shipped::Closed;
            }
            std::thread::sleep(POLL);
        }
    }
}

/// Reads whole frames from `wal` starting at `from`, stopping at
/// [`CHUNK_BYTES`] or the durable boundary `limit`, whichever comes first.
fn read_chunk(
    wal: &Path,
    from: u64,
    limit: u64,
) -> Result<(Vec<u8>, u64, u64), prov_store::WalError> {
    let mut cursor = WalCursor::open_at(wal, from)?;
    let mut chunk = Vec::with_capacity(CHUNK_BYTES);
    let mut frames = 0u64;
    let mut end = from;
    while end < limit && chunk.len() < CHUNK_BYTES {
        let before = chunk.len();
        match cursor.next_frame()? {
            Some(frame) => chunk.extend_from_slice(frame),
            None => break,
        }
        if cursor.offset() > limit {
            chunk.truncate(before); // frame straddles the durable boundary: not ours to ship
            break;
        }
        end = cursor.offset();
        frames += 1;
    }
    Ok((chunk, frames, end))
}
