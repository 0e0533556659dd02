//! Client side of the serve protocol: a thin request/reply handle
//! ([`ServeClient`]) and an engine-facing [`RemoteSink`] that streams
//! trace events to a daemon with pipelined, durability-acknowledged
//! batches — `tprov run --server` plugs it in where the local store would
//! normally sit.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use parking_lot::Mutex;
use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{ProcessorName, RunId};

use crate::protocol::{self as p, ServeErrorMsg};
use crate::server::error_from_msg;
use crate::ServeError;

fn io_err(e: impl std::fmt::Display) -> ServeError {
    ServeError::Io(e.to_string())
}

/// Reads one reply frame, mapping `TAG_ERR` to a typed [`ServeError`].
fn read_reply<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), ServeError> {
    match p::read_msg(r) {
        Ok(Some((p::TAG_ERR, payload))) => {
            let msg: ServeErrorMsg = p::decode(&payload).map_err(io_err)?;
            Err(error_from_msg(msg))
        }
        Ok(Some(other)) => Ok(other),
        Ok(None) => Err(ServeError::Io("server closed the connection".into())),
        Err(e) => Err(io_err(e)),
    }
}

/// One connection to a daemon. Replies are read in lock-step, so a
/// `ServeClient` is a plain sequential handle; open several for
/// concurrency.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects and consumes the `WELCOME` frame. A connection-limit
    /// refusal surfaces as [`ServeError::Busy`].
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let mut stream = TcpStream::connect(addr).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        let (tag, payload) = read_reply(&mut stream)?;
        if tag != p::TAG_WELCOME {
            return Err(ServeError::Protocol(format!("expected WELCOME, got tag {tag:#x}")));
        }
        let welcome: p::Welcome = p::decode(&payload).map_err(io_err)?;
        if welcome.proto != p::PROTO_VERSION {
            return Err(ServeError::Protocol(format!(
                "server speaks protocol {} but this client speaks {}",
                welcome.proto,
                p::PROTO_VERSION
            )));
        }
        Ok(ServeClient { stream })
    }

    /// Sets a client-side read timeout (useful when probing a daemon that
    /// may be wedged).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout).map_err(io_err)
    }

    /// Runs one query; a deadline expiry on the server surfaces as
    /// [`ServeError::Timeout`].
    pub fn query(&mut self, req: &p::ServeQuery) -> Result<Vec<String>, ServeError> {
        self.query_bounded(req, None).map(|ok| ok.answers)
    }

    /// Runs one query and, when a follower answered, refuses the answer
    /// as [`ServeError::ReplicaStale`] if the follower lagged its primary
    /// by more than `max_lag` frames. A primary's answer carries no
    /// position and passes any bound.
    pub fn query_bounded(
        &mut self,
        req: &p::ServeQuery,
        max_lag: Option<u64>,
    ) -> Result<p::ServeQueryOk, ServeError> {
        p::write_json(&mut self.stream, p::TAG_QUERY, req).map_err(io_err)?;
        let (tag, payload) = read_reply(&mut self.stream)?;
        if tag != p::TAG_QUERY_OK {
            return Err(ServeError::Protocol(format!("expected QUERY_OK, got tag {tag:#x}")));
        }
        let ok: p::ServeQueryOk = p::decode(&payload).map_err(io_err)?;
        if let Some(at) = &ok.replica {
            staleness_check(at.lag_frames, max_lag)?;
        }
        Ok(ok)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<p::Pong, ServeError> {
        p::write_msg(&mut self.stream, p::TAG_PING, &[]).map_err(io_err)?;
        let (tag, payload) = read_reply(&mut self.stream)?;
        if tag != p::TAG_PONG {
            return Err(ServeError::Protocol(format!("expected PONG, got tag {tag:#x}")));
        }
        p::decode(&payload).map_err(io_err)
    }

    /// Asks the daemon to drain and exit (the remote SIGTERM).
    pub fn shutdown(&mut self) -> Result<p::Pong, ServeError> {
        p::write_msg(&mut self.stream, p::TAG_SHUTDOWN, &[]).map_err(io_err)?;
        let (tag, payload) = read_reply(&mut self.stream)?;
        if tag != p::TAG_PONG {
            return Err(ServeError::Protocol(format!("expected PONG, got tag {tag:#x}")));
        }
        p::decode(&payload).map_err(io_err)
    }

    /// The raw stream, for protocol-level tests (mid-frame kills, fault
    /// injection).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

/// The staleness bound: a follower's answer is refused when its lag
/// exceeds `max_lag` frames. Unknown lag (`u64::MAX`: the follower has
/// not heard from its primary) exceeds every bound, so a bounded query is
/// refused until primary contact; an unbounded one (`None`) never is.
fn staleness_check(lag_frames: u64, max_lag: Option<u64>) -> Result<(), ServeError> {
    match max_lag {
        Some(max) if lag_frames > max => Err(ServeError::ReplicaStale { lag_frames, max_lag: max }),
        _ => Ok(()),
    }
}

/// How many events a [`RemoteSink`] buffers before shipping a batch.
pub const DEFAULT_BATCH_EVENTS: usize = 256;

/// How many unacked batches a [`RemoteSink`] keeps in flight. More than 1
/// pipelines the network against the server's group commit; the bound
/// keeps client memory and loss-on-crash finite.
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

struct SinkState {
    stream: TcpStream,
    run: Option<RunId>,
    buffer: Vec<TraceEvent>,
    next_seq: u64,
    outstanding: u64,
    last_acked_seq: Option<u64>,
    durable_frames: u64,
    error: Option<ServeError>,
}

/// A [`TraceSink`] that streams events to a daemon. Events buffer locally
/// into batches; batches pipeline up to a depth, each acknowledged by the
/// server only after its WAL group commit — so after a successful
/// [`RemoteSink::finish`], everything recorded is durable on the server.
///
/// `TraceSink` methods cannot return errors, so failures latch into the
/// sink; check [`RemoteSink::error`] after the run.
#[derive(Debug)]
pub struct RemoteSink {
    state: Mutex<SinkState>,
    workflow_json: Option<String>,
    batch_events: usize,
}

impl std::fmt::Debug for SinkState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkState")
            .field("run", &self.run)
            .field("next_seq", &self.next_seq)
            .field("outstanding", &self.outstanding)
            .field("error", &self.error)
            .finish()
    }
}

impl RemoteSink {
    /// Connects to a daemon; `workflow_json` (the serialized `Dataflow`)
    /// is registered server-side at `begin_run` so `indexproj` queries can
    /// plan against it.
    pub fn connect(addr: &str, workflow_json: Option<String>) -> Result<Self, ServeError> {
        let client = ServeClient::connect(addr)?;
        Ok(RemoteSink {
            state: Mutex::new(SinkState {
                stream: client.into_stream(),
                run: None,
                buffer: Vec::new(),
                next_seq: 0,
                outstanding: 0,
                last_acked_seq: None,
                durable_frames: 0,
                error: None,
            }),
            workflow_json,
            batch_events: DEFAULT_BATCH_EVENTS,
        })
    }

    /// Overrides the events-per-batch threshold (tests, benchmarks).
    pub fn with_batch_events(mut self, n: usize) -> Self {
        self.batch_events = n.max(1);
        self
    }

    /// The first error the sink hit, if any: a sink with an error has
    /// dropped events and the run must not be trusted as recorded.
    pub fn error(&self) -> Option<ServeError> {
        self.state.lock().error.clone()
    }

    /// WAL frames the server reported durable at the last ack.
    pub fn durable_frames(&self) -> u64 {
        self.state.lock().durable_frames
    }

    /// Flushes the buffer, waits for every outstanding ack, and closes
    /// the run stream. Returns the first latched error, making the
    /// durability handshake checkable (`TraceSink::finish_run` swallows
    /// it).
    pub fn finish(&self) -> Result<(), ServeError> {
        let mut st = self.state.lock();
        if let Some(run) = st.run {
            Self::flush_locked(&mut st, true);
            if st.error.is_none() {
                let last = st.next_seq.wrapping_sub(1);
                let finish = p::IngestFinish {
                    run: run.0,
                    seq: if st.next_seq == 0 { u64::MAX } else { last },
                };
                if let Err(e) = p::write_json(&mut st.stream, p::TAG_INGEST_FINISH, &finish) {
                    st.error = Some(io_err(e));
                } else {
                    // The finish-ack follows any remaining batch acks.
                    Self::read_one_ack(&mut st);
                }
            }
            st.run = None;
        }
        match &st.error {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }

    fn read_one_ack(st: &mut SinkState) {
        match read_reply(&mut st.stream) {
            Ok((p::TAG_INGEST_ACK, payload)) => match p::decode::<p::IngestAck>(&payload) {
                Ok(ack) => {
                    st.last_acked_seq = Some(ack.seq);
                    st.durable_frames = ack.durable_frames;
                    st.outstanding = st.outstanding.saturating_sub(1);
                }
                Err(e) => st.error = Some(io_err(e)),
            },
            Ok((tag, _)) => {
                st.error = Some(ServeError::Protocol(format!("expected ACK, got tag {tag:#x}")))
            }
            Err(e) => st.error = Some(e),
        }
    }

    /// Ships the buffered events as one batch; with `drain`, also waits
    /// for every outstanding ack.
    fn flush_locked(st: &mut SinkState, drain: bool) {
        if st.error.is_some() {
            return;
        }
        let Some(run) = st.run else { return };
        if !st.buffer.is_empty() {
            let events = std::mem::take(&mut st.buffer);
            let batch = p::IngestBatch { run: run.0, seq: st.next_seq, events };
            st.next_seq += 1;
            if let Err(e) = p::write_json(&mut st.stream, p::TAG_INGEST_BATCH, &batch) {
                st.error = Some(io_err(e));
                return;
            }
            st.outstanding += 1;
        }
        while st.error.is_none() && st.outstanding > 0 && drain {
            Self::read_one_ack(st);
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut st = self.state.lock();
        if st.error.is_some() {
            return;
        }
        st.buffer.push(event);
        if st.buffer.len() >= self.batch_events {
            Self::flush_locked(&mut st, false);
            // Pipeline bound: absorb acks until back under the window.
            while st.error.is_none() && st.outstanding >= DEFAULT_PIPELINE_DEPTH as u64 {
                Self::read_one_ack(&mut st);
            }
        }
    }
}

impl TraceSink for RemoteSink {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        let mut st = self.state.lock();
        let begin = p::IngestBegin {
            workflow: workflow.to_string(),
            workflow_json: self.workflow_json.clone(),
        };
        if let Err(e) = p::write_json(&mut st.stream, p::TAG_INGEST_BEGIN, &begin) {
            st.error = Some(io_err(e));
            return RunId(u64::MAX);
        }
        match read_reply(&mut st.stream) {
            Ok((p::TAG_INGEST_BEGUN, payload)) => match p::decode::<p::IngestBegun>(&payload) {
                Ok(begun) => {
                    let run = RunId(begun.run);
                    st.run = Some(run);
                    st.next_seq = 0;
                    st.outstanding = 0;
                    run
                }
                Err(e) => {
                    st.error = Some(io_err(e));
                    RunId(u64::MAX)
                }
            },
            Ok((tag, _)) => {
                st.error = Some(ServeError::Protocol(format!("expected BEGUN, got tag {tag:#x}")));
                RunId(u64::MAX)
            }
            Err(e) => {
                st.error = Some(e);
                RunId(u64::MAX)
            }
        }
    }

    fn record_xform(&self, _run: RunId, event: XformEvent) {
        self.push(TraceEvent::Xform(event));
    }

    fn record_xfer(&self, _run: RunId, event: XferEvent) {
        self.push(TraceEvent::Xfer(event));
    }

    fn record_batch(&self, _run: RunId, events: Vec<TraceEvent>) {
        for event in events {
            self.push(event);
        }
    }

    fn finish_run(&self, _run: RunId) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_queries_are_never_refused() {
        assert!(staleness_check(u64::MAX, None).is_ok());
        assert!(staleness_check(1_000_000, None).is_ok());
    }

    #[test]
    fn bounded_queries_refuse_beyond_the_lag_bound() {
        assert!(staleness_check(3, Some(3)).is_ok());
        let err = staleness_check(4, Some(3)).unwrap_err();
        assert_eq!(err, ServeError::ReplicaStale { lag_frames: 4, max_lag: 3 });
    }

    #[test]
    fn unknown_lag_refuses_any_bounded_query() {
        // Never heard a heartbeat: even a generous bound is refused, and
        // the reported lag is the unknown sentinel.
        let err = staleness_check(u64::MAX, Some(1_000_000)).unwrap_err();
        assert_eq!(err, ServeError::ReplicaStale { lag_frames: u64::MAX, max_lag: 1_000_000 });
        assert!(err.to_string().contains("stale"), "{err}");
    }

    #[test]
    fn zero_lag_satisfies_a_zero_bound() {
        assert!(staleness_check(0, Some(0)).is_ok());
    }
}
