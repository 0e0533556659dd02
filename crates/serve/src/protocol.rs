//! Wire vocabulary of the serve daemon: one tag table.
//!
//! The daemon speaks one framing dialect (one byte of tag, a
//! little-endian `u32` length, a payload), whose codec this module
//! re-exports. Client requests live in `0x21..=0x2F`, server replies in
//! `0x30..=0x3F`, and the WAL stream in `0x01..=0x06`. A follower's
//! [`TAG_HELLO`] is one more request on a session: the daemon that owns a
//! database answers it by streaming its WAL on the same connection. Keeping the ranges apart means a misrouted
//! frame is a typed protocol error, never a silent misparse.
//!
//! Two WAL-stream messages carry raw bytes: [`TAG_FRAMES`] a chunk of WAL
//! frames exactly as they appear in the primary's log, and a
//! [`TAG_BOOTSTRAP`] header that many snapshot-file bytes after it,
//! outside any framing. A follower's [`Hello`] carries a CRC-32 of its
//! whole durable WAL prefix, which the primary checks against its own.

use serde::{Deserialize, Serialize};

pub use crate::wire::{
    decode, frame_too_large, read_exact_retry, read_msg, read_raw, write_json, write_msg,
    FrameTooLarge, MAX_FRAME_LEN,
};

use prov_engine::TraceEvent;

// ---- follower <-> primary (the WAL stream) ---------------------------

/// Follower → primary: identify the local log and ask for a plan.
pub const TAG_HELLO: u8 = 0x01;
/// Primary → follower: a snapshot file follows (raw bytes after the header).
pub const TAG_BOOTSTRAP: u8 = 0x02;
/// Primary → follower: frames will stream from the given offset.
pub const TAG_STREAM_FROM: u8 = 0x03;
/// Primary → follower: a raw chunk of whole WAL frames.
pub const TAG_FRAMES: u8 = 0x04;
/// Primary → follower: current durable position (lag accounting).
pub const TAG_HEARTBEAT: u8 = 0x05;
/// Primary → follower: the WAL lineage changed; re-handshake.
pub const TAG_RESYNC: u8 = 0x06;

// ---- client -> server ------------------------------------------------

/// Opens an ingest stream for one run of `workflow`.
pub const TAG_INGEST_BEGIN: u8 = 0x21;
/// One ordered batch of trace events for an open ingest stream.
pub const TAG_INGEST_BATCH: u8 = 0x22;
/// Closes an ingest stream; the run is finished after the final ack.
pub const TAG_INGEST_FINISH: u8 = 0x23;
/// One lineage/impact query.
pub const TAG_QUERY: u8 = 0x24;
/// Liveness probe; answered with [`TAG_PONG`] even while draining.
pub const TAG_PING: u8 = 0x25;
/// Asks the daemon to drain and exit (same path as SIGTERM).
pub const TAG_SHUTDOWN: u8 = 0x26;

// ---- server -> client ------------------------------------------------

/// The first frame on every accepted connection.
pub const TAG_WELCOME: u8 = 0x30;
/// Reply to [`TAG_INGEST_BEGIN`]: carries the assigned run id.
pub const TAG_INGEST_BEGUN: u8 = 0x31;
/// Durability acknowledgement for one ingest batch — sent only *after*
/// the batch has been group-committed (WAL appended **and** fsynced), so
/// an acked batch survives any crash.
pub const TAG_INGEST_ACK: u8 = 0x32;
/// Successful query reply.
pub const TAG_QUERY_OK: u8 = 0x33;
/// Reply to [`TAG_PING`] and [`TAG_SHUTDOWN`].
pub const TAG_PONG: u8 = 0x34;
/// A typed refusal or failure (see [`ServeErrorMsg::code`]).
pub const TAG_ERR: u8 = 0x3F;

/// The follower's opening offer: "my log is `offset` durable bytes /
/// `frames` frames whose CRC-32 is `prefix_crc`; lineage I last knew was
/// `generation`". `force_bootstrap` asks for a full re-seed regardless.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hello {
    /// WAL lineage the follower last synced to (advisory; the CRC decides).
    pub generation: u64,
    /// Durable length of the follower's local WAL in bytes.
    pub offset: u64,
    /// Durable frame count of the follower's local WAL.
    pub frames: u64,
    /// CRC-32 of the follower's first `offset` WAL bytes.
    pub prefix_crc: u32,
    /// Demand a snapshot bootstrap even if the prefix would match.
    pub force_bootstrap: bool,
}

/// Announces the raw snapshot bytes that follow a [`TAG_BOOTSTRAP`] header.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BootstrapHeader {
    /// Snapshot generation being shipped (the follower installs it as
    /// `<db>.snap.<generation>`).
    pub generation: u64,
    /// Exact byte length of the snapshot file.
    pub len: u64,
}

/// The primary's go-ahead: frames stream from `offset` of lineage
/// `generation`. Offset zero on a non-empty follower means "wipe and
/// replay from scratch".
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamFrom {
    /// WAL lineage being streamed.
    pub generation: u64,
    /// Byte offset the first shipped frame starts at.
    pub offset: u64,
}

/// Why the primary broke the stream and asked for a new handshake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Resync {
    /// The primary's current lineage.
    pub generation: u64,
    /// Human-oriented cause ("generation changed", ...).
    pub reason: String,
}

/// First frame on every accepted connection: protocol self-description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Welcome {
    /// Protocol revision (bump on incompatible change).
    pub proto: u32,
    /// The frame-size bound the server enforces on inbound frames.
    pub max_frame: u32,
}

/// Opens an ingest stream. When `workflow_json` is present the server
/// registers the spec (logging it only if new) before beginning the run,
/// so `indexproj` queries can plan against it without out-of-band setup.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBegin {
    /// Workflow (dataflow) name the run belongs to.
    pub workflow: String,
    /// Optional serialized `Dataflow` to register.
    pub workflow_json: Option<String>,
}

/// Reply to [`IngestBegin`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBegun {
    /// The run id the server assigned; quote it in every later frame.
    pub run: u64,
}

/// One ordered batch of trace events. `seq` starts at 0 per stream and
/// increments by 1; the server acks each batch by `seq` once durable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestBatch {
    /// Run id from [`IngestBegun`].
    pub run: u64,
    /// Client-assigned batch sequence number.
    pub seq: u64,
    /// The events, in recording order.
    pub events: Vec<TraceEvent>,
}

/// Closes an ingest stream after the last batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestFinish {
    /// Run id from [`IngestBegun`].
    pub run: u64,
    /// Sequence number of the last batch sent (`u64::MAX` if none).
    pub seq: u64,
}

/// Durability acknowledgement for one batch (or, with
/// `seq == u64::MAX`, for a finished stream as a whole).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestAck {
    /// Run id.
    pub run: u64,
    /// The acknowledged batch sequence number.
    pub seq: u64,
    /// WAL frames durable on disk at ack time (monotonic).
    pub durable_frames: u64,
}

/// One query request, mirroring the CLI's `tprov query` surface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeQuery {
    /// Query source text (`lineage ...` / `impact ...`).
    pub query: String,
    /// Target run id (ignored when `all_runs`).
    pub run: u64,
    /// Query every run in the store.
    pub all_runs: bool,
    /// `"ni"` or `"indexproj"` (lineage only).
    pub algo: String,
    /// Workflow name for `indexproj` planning (optional when the store
    /// registers exactly one).
    pub wf: Option<String>,
    /// Per-request deadline override in milliseconds; `None` uses the
    /// server's configured default.
    pub deadline_ms: Option<u64>,
}

/// Successful query reply: answers rendered with the same `Display` the
/// CLI uses, so served and local output are byte-comparable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeQueryOk {
    /// One rendered answer per queried run.
    pub answers: Vec<String>,
    /// Where a follower stood when it answered; `None` from a primary.
    pub replica: Option<ReplicaPosition>,
}

/// A follower's replication position, read just before it executes a
/// query: the answers cover at least this durable prefix of the
/// primary's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaPosition {
    /// WAL lineage (leading snapshot marker generation, 0 if none).
    pub generation: u64,
    /// Durable WAL length in bytes.
    pub offset: u64,
    /// Frames behind the primary's last heartbeat; `u64::MAX` while the
    /// follower has not heard from its primary (lag unknown).
    pub lag_frames: u64,
    /// Bytes behind the primary's last heartbeat (`u64::MAX`: unknown).
    pub lag_bytes: u64,
}

/// Reply to [`TAG_PING`] / [`TAG_SHUTDOWN`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pong {
    /// Whether the daemon is draining (refusing new work).
    pub draining: bool,
    /// Sessions currently connected.
    pub active: u64,
}

/// Typed error reply. `code` is machine-matchable:
/// `busy` | `timeout` | `shutting_down` | `query_failed` | `bad_request`
/// | `ingest_failed` | `read_only`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeErrorMsg {
    /// Machine-matchable error class.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// For `busy`: sessions active when the connection was refused.
    pub active: Option<u64>,
    /// For `busy`: the configured connection limit.
    pub limit: Option<u64>,
}

impl ServeErrorMsg {
    /// A plain coded error with no occupancy info.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ServeErrorMsg { code: code.into(), message: message.into(), active: None, limit: None }
    }
}

/// Protocol revision spoken by this build.
pub const PROTO_VERSION: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reply_tag_spaces_are_disjoint() {
        let requests = [
            TAG_INGEST_BEGIN,
            TAG_INGEST_BATCH,
            TAG_INGEST_FINISH,
            TAG_QUERY,
            TAG_PING,
            TAG_SHUTDOWN,
        ];
        let replies =
            [TAG_WELCOME, TAG_INGEST_BEGUN, TAG_INGEST_ACK, TAG_QUERY_OK, TAG_PONG, TAG_ERR];
        let stream =
            [TAG_HELLO, TAG_BOOTSTRAP, TAG_STREAM_FROM, TAG_FRAMES, TAG_HEARTBEAT, TAG_RESYNC];
        for r in requests {
            assert!((0x21..=0x2F).contains(&r));
            assert!(!replies.contains(&r));
        }
        for r in replies {
            assert!((0x30..=0x3F).contains(&r));
        }
        for r in stream {
            assert!((0x01..=0x06).contains(&r));
            assert!(!requests.contains(&r) && !replies.contains(&r));
        }
    }

    #[test]
    fn round_trips_control_and_raw_messages() {
        let mut wire = Vec::new();
        let hello = Hello {
            generation: 3,
            offset: 128,
            frames: 7,
            prefix_crc: 0xDEAD_BEEF,
            force_bootstrap: false,
        };
        write_json(&mut wire, TAG_HELLO, &hello).unwrap();
        write_msg(&mut wire, TAG_FRAMES, b"rawbytes").unwrap();

        let mut r = wire.as_slice();
        let (tag, payload) = read_msg(&mut r).unwrap().unwrap();
        assert_eq!(tag, TAG_HELLO);
        let back: Hello = decode(&payload).unwrap();
        assert_eq!(back.offset, 128);
        assert_eq!(back.prefix_crc, 0xDEAD_BEEF);

        let (tag, payload) = read_msg(&mut r).unwrap().unwrap();
        assert_eq!(tag, TAG_FRAMES);
        assert_eq!(payload, b"rawbytes");

        assert!(read_msg(&mut r).unwrap().is_none());
    }

    #[test]
    fn ingest_batch_round_trips_trace_events() {
        use prov_engine::{PortBinding, XformEvent};
        use prov_model::{Index, ProcessorName, Value};

        let batch = IngestBatch {
            run: 7,
            seq: 3,
            events: vec![TraceEvent::Xform(XformEvent {
                processor: ProcessorName::from("P"),
                invocation: 2,
                inputs: vec![PortBinding::new("x", Index::from_slice(&[1, 2]), Value::str("in"))],
                outputs: vec![PortBinding::new("y", Index::from_slice(&[1, 2]), Value::str("out"))],
            })],
        };
        let mut wire = Vec::new();
        write_json(&mut wire, TAG_INGEST_BATCH, &batch).unwrap();
        let (tag, payload) = read_msg(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(tag, TAG_INGEST_BATCH);
        let back: IngestBatch = decode(&payload).unwrap();
        assert_eq!(back.run, 7);
        assert_eq!(back.seq, 3);
        assert_eq!(back.events, batch.events);
    }
}
