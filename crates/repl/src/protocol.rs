//! Wire protocol for WAL shipping.
//!
//! The *framing* — `tag (1 byte) | len (u32 LE) | payload[len]`, the
//! inbound length guards, and the timeout-safe readers — lives in the
//! shared [`prov_wire`] codec, re-exported here verbatim so replication
//! and the serve daemon speak one dialect. This module keeps the
//! replication-specific message vocabulary: control messages carry JSON
//! payloads; [`TAG_FRAMES`] carries a raw chunk of WAL frame bytes
//! exactly as they appear in the primary's log (the follower re-frames
//! the payloads, producing a byte-identical local log), and a
//! [`TAG_BOOTSTRAP`] header is followed by that many *raw* snapshot-file
//! bytes outside any message framing.
//!
//! The handshake is deliberately content-addressed rather than
//! position-trusting: the follower's [`Hello`] carries a CRC-32 of its
//! entire local durable WAL prefix, and the primary streams its own first
//! `offset` bytes through [`prov_store::Crc32`] to verify the follower's
//! log really is a byte prefix of its own. Generation numbers are
//! advisory; bytes cannot lie.
//!
//! A follower speaks this vocabulary to the primary's `tprov serve`
//! daemon, on its ordinary port: [`TAG_HELLO`] is one more request on a
//! serve session. The follower therefore skips the session's
//! [`TAG_WELCOME`], and reads a [`TAG_ERR`] reply (`busy`, `read_only`,
//! `shutting_down`, ...) as a refused session to retry later.

use serde::{Deserialize, Serialize};

pub use prov_wire::{
    decode, frame_too_large, read_exact_retry, read_msg, read_raw, write_json, write_msg,
    FrameTooLarge, MAX_FRAME_LEN, MAX_RAW_LEN, TAG_ERR, TAG_WELCOME,
};

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

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
    fn oversized_length_is_rejected_not_allocated() {
        let mut wire = vec![TAG_FRAMES];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_msg(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Regression: through the shared codec the refusal is typed, so a
        // follower fed a forged length can tell "hostile prefix" apart
        // from ordinary decode noise.
        let typed = frame_too_large(&err).expect("typed FrameTooLarge through repl path");
        assert_eq!(typed.max, u64::from(MAX_FRAME_LEN));
    }

    #[test]
    fn oversized_bootstrap_header_is_rejected_not_allocated() {
        // A malicious primary announcing a 2^63-byte snapshot must get a
        // typed refusal from the raw-body reader the bootstrap path uses.
        let err = read_raw(&mut io::empty(), 1u64 << 63).unwrap_err();
        assert!(frame_too_large(&err).is_some());
    }

    #[test]
    fn truncated_message_is_an_unexpected_eof() {
        let mut wire = Vec::new();
        write_msg(&mut wire, TAG_FRAMES, b"full payload").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_msg(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
