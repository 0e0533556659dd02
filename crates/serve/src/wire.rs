//! The length-prefixed frame codec of every TCP endpoint in the system.
//! This module holds framing only; the tags and message types that ride
//! on it are [`protocol`](crate::protocol)'s, which re-exports its API.
//!
//! Every message is `tag (1 byte) | len (u32 LE) | payload[len]`. Control
//! messages carry JSON payloads; bulk messages (WAL frame chunks, ingest
//! batches) carry raw or JSON-encoded bodies under the same framing.
//!
//! Robustness properties of the *inbound* path:
//!
//! * **No trusted length prefixes.** A framed length beyond
//!   [`MAX_FRAME_LEN`] — or a raw (unframed) body beyond [`MAX_RAW_LEN`] —
//!   is rejected with a typed [`FrameTooLarge`] error *before any
//!   allocation*, so a malformed or malicious peer cannot make the reader
//!   allocate gigabytes from four bytes of input.
//! * **Timeouts never tear messages.** Read timeouts set for liveness
//!   polling surface only *between* messages (while waiting for a tag
//!   byte); once a tag has arrived the rest of the message is read to
//!   completion across any number of `WouldBlock`/`TimedOut` retries.
//! * **EOF is classified.** A clean EOF at a message boundary is
//!   `Ok(None)` (the peer hung up); an EOF mid-message is an
//!   `UnexpectedEof` error (the peer died mid-frame).

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// Upper bound on a single framed message; a control message is tiny and
/// a WAL frames chunk is a few tens of KiB, so anything near this is
/// corruption or a hostile peer.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Upper bound on a raw (unframed) body announced by a header — the
/// snapshot-bootstrap path. Snapshots are full store images, so the bound
/// is generous, but it still turns a forged 2^60-byte header into a typed
/// refusal instead of an allocation attempt.
pub(crate) const MAX_RAW_LEN: u64 = 1024 * 1024 * 1024;

/// Typed rejection of a length prefix beyond the protocol bound. Raised
/// on the inbound path *before* the oversized buffer would be allocated;
/// carried as the source of an `io::Error` with kind `InvalidData`, so
/// existing `io::Result` plumbing passes it through untouched — use
/// [`frame_too_large`] to recover the typed view at the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The length the peer announced.
    pub len: u64,
    /// The bound it violated ([`MAX_FRAME_LEN`] or `MAX_RAW_LEN`).
    pub max: u64,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame of {} bytes exceeds the protocol limit of {} bytes", self.len, self.max)
    }
}

impl std::error::Error for FrameTooLarge {}

impl FrameTooLarge {
    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

/// Recovers the typed [`FrameTooLarge`] from an `io::Error`, if that is
/// what it carries.
pub fn frame_too_large(e: &io::Error) -> Option<&FrameTooLarge> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<FrameTooLarge>())
}

/// Writes one framed message.
pub fn write_msg<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        FrameTooLarge { len: payload.len() as u64, max: u64::from(MAX_FRAME_LEN) }.into_io()
    })?;
    if len > MAX_FRAME_LEN {
        return Err(FrameTooLarge { len: u64::from(len), max: u64::from(MAX_FRAME_LEN) }.into_io());
    }
    w.write_all(&[tag])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Serializes `value` as JSON and writes it as one framed message.
pub fn write_json<W: Write, T: Serialize>(w: &mut W, tag: u8, value: &T) -> io::Result<()> {
    let payload = serde_json::to_vec(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_msg(w, tag, &payload)
}

/// Reads until `buf` is full, retrying reads that time out (so a read
/// timeout set for liveness checks cannot tear a message mid-body). A
/// clean EOF mid-buffer is an `UnexpectedEof` error.
pub fn read_exact_retry<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-message"))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one framed message. Returns `Ok(None)` on a clean EOF *at a
/// message boundary* (the peer hung up). A timeout while waiting for the
/// tag byte surfaces as `WouldBlock`/`TimedOut` so callers can poll a stop
/// flag; once the tag byte has arrived the rest is read to completion. A
/// length prefix beyond [`MAX_FRAME_LEN`] is a typed [`FrameTooLarge`]
/// rejection before any allocation.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut len = [0u8; 4];
    read_exact_retry(r, &mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(FrameTooLarge { len: u64::from(len), max: u64::from(MAX_FRAME_LEN) }.into_io());
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_retry(r, &mut payload)?;
    Ok(Some((tag[0], payload)))
}

/// Reads exactly `len` raw (unframed) bytes — a bootstrap body. A `len`
/// beyond `MAX_RAW_LEN` is a typed [`FrameTooLarge`] rejection before
/// any allocation: the announcing header travels over the same untrusted
/// wire as everything else.
pub fn read_raw<R: Read + ?Sized>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    if len > MAX_RAW_LEN {
        return Err(FrameTooLarge { len, max: MAX_RAW_LEN }.into_io());
    }
    let mut buf = vec![
        0u8;
        usize::try_from(len).map_err(|_| io::Error::new(
            io::ErrorKind::InvalidData,
            "raw body too large for this platform"
        ))?
    ];
    read_exact_retry(r, &mut buf)?;
    Ok(buf)
}

/// Decodes a JSON control payload.
pub fn decode<T: Deserialize>(payload: &[u8]) -> io::Result<T> {
    serde_json::from_slice(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}
