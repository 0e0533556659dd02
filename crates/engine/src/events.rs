//! Observable provenance events (§2.3) and the sink abstraction.
//!
//! The trace `T_{E_D}` of a run is the collection of all observable *xform*
//! and *xfer* events. The engine pushes them into a [`TraceSink`] as they
//! happen; `prov-store` provides the durable, indexed implementation, and
//! [`VecSink`] / [`NullSink`] serve tests and benchmarks.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use prov_model::{Index, PortRef, ProcessorName, RunId, Value};

/// One port's side of an *xform* event: `⟨P:X[p], v⟩` with the value
/// resolved inline (sinks may deduplicate values by content).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortBinding {
    /// Port name on the event's processor.
    pub port: Arc<str>,
    /// Element index within the value bound to the port (empty = whole).
    pub index: Index,
    /// The consumed/produced element.
    pub value: Value,
}

impl PortBinding {
    /// Builds a port binding.
    pub fn new(port: &str, index: Index, value: Value) -> Self {
        PortBinding { port: Arc::from(port), index, value }
    }
}

/// An *xform* event: one elementary invocation of a processor,
/// `⟨P:X1[p1],v1⟩ … ⟨P:Xn[pn],vn⟩ → ⟨P:Y1[q],w1⟩ …` (relation (1), §2.3).
///
/// With implicit iteration a single processor contributes many xform
/// events per run — e.g. `|a|·|b|` of them for the cross product of Fig. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XformEvent {
    /// The (scope-qualified) processor name.
    pub processor: ProcessorName,
    /// Invocation ordinal within this processor and run (0-based).
    pub invocation: u32,
    /// Consumed input elements, one per input port, in port order.
    pub inputs: Vec<PortBinding>,
    /// Produced output elements, one per output port, in port order. All
    /// share the same iteration index `q`.
    pub outputs: Vec<PortBinding>,
}

impl fmt::Display for XformEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{}:{}{}, {}⟩", self.processor, b.port, b.index, b.value)?;
        }
        write!(f, " → ")?;
        for (i, b) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{}:{}{}, {}⟩", self.processor, b.port, b.index, b.value)?;
        }
        Ok(())
    }
}

/// An *xfer* event: the transfer of one element along an arc,
/// `⟨P:X[p], v⟩ → ⟨P′:Y[p′], v⟩` (relation (2), §2.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XferEvent {
    /// Source port.
    pub src: PortRef,
    /// Element index at the source.
    pub src_index: Index,
    /// Destination port.
    pub dst: PortRef,
    /// Element index at the destination (equal to `src_index` for plain
    /// arcs; kept separate because the relation allows reindexing).
    pub dst_index: Index,
    /// The transferred element.
    pub value: Value,
}

impl fmt::Display for XferEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}{}, {}⟩ → ⟨{}{}, _⟩",
            self.src, self.src_index, self.value, self.dst, self.dst_index
        )
    }
}

/// One recorded event of either kind, in recording order — the unit of
/// batched ingest ([`TraceSink::record_batch`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An elementary invocation.
    Xform(XformEvent),
    /// An element transfer.
    Xfer(XferEvent),
}

/// Receives provenance events as a run executes.
///
/// Implementations must be internally synchronised (`&self` methods): the
/// engine records from one thread per run, but a daemon shares one sink
/// across its client sessions.
pub trait TraceSink: Send + Sync {
    /// Registers a new run of the given workflow and returns its id.
    fn begin_run(&self, workflow: &ProcessorName) -> RunId;
    /// Records one xform event.
    fn record_xform(&self, run: RunId, event: XformEvent);
    /// Records one xfer event.
    fn record_xfer(&self, run: RunId, event: XferEvent);
    /// Records a batch of events in order. The engine accumulates the
    /// events of one processor (or one scope's output transfers) and hands
    /// them over in a single call, so sinks that serialise ingest through a
    /// lock or a log can amortise the acquisition across the whole batch.
    /// The default forwards event-at-a-time, so existing sinks observe the
    /// exact per-event sequence they always did.
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        for event in events {
            match event {
                TraceEvent::Xform(e) => self.record_xform(run, e),
                TraceEvent::Xfer(e) => self.record_xfer(run, e),
            }
        }
    }
    /// Marks a run complete. Sinks may flush here.
    fn finish_run(&self, run: RunId);
}

/// Shared-ownership forwarding: an `Arc<impl TraceSink>` is itself a
/// sink, so a store shared between a daemon's sessions and a local engine
/// can be passed wherever a sink is expected without re-borrowing
/// gymnastics. `record_batch` forwards as a batch (the whole point of the
/// shared store's group-commit ingest).
impl<T: TraceSink + ?Sized> TraceSink for Arc<T> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        (**self).begin_run(workflow)
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        (**self).record_xform(run, event)
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        (**self).record_xfer(run, event)
    }
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        (**self).record_batch(run, events)
    }
    fn finish_run(&self, run: RunId) {
        (**self).finish_run(run)
    }
}

/// A sink that discards everything (for measuring pure execution cost).
#[derive(Debug, Default)]
pub struct NullSink {
    next: Mutex<u64>,
}

impl TraceSink for NullSink {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        let mut next = self.next.lock();
        let id = RunId(*next);
        *next += 1;
        id
    }
    fn record_xform(&self, _run: RunId, _event: XformEvent) {}
    fn record_xfer(&self, _run: RunId, _event: XferEvent) {}
    fn finish_run(&self, _run: RunId) {}
}

/// A sink that collects events in memory, for tests and inspection.
#[derive(Debug, Default)]
pub struct VecSink {
    next: Mutex<u64>,
    /// Collected xform events with their run ids.
    pub xforms: Mutex<Vec<(RunId, XformEvent)>>,
    /// Collected xfer events with their run ids.
    pub xfers: Mutex<Vec<(RunId, XferEvent)>>,
}

impl VecSink {
    /// An empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of recorded events (xform + xfer) — the "number of
    /// trace database records" measure of Table 1.
    pub fn record_count(&self) -> usize {
        self.xforms.lock().len() + self.xfers.lock().len()
    }

    /// All xform events of a run, in recording order.
    pub fn xforms_of(&self, run: RunId) -> Vec<XformEvent> {
        self.xforms.lock().iter().filter(|(r, _)| *r == run).map(|(_, e)| e.clone()).collect()
    }

    /// All xfer events of a run, in recording order.
    pub fn xfers_of(&self, run: RunId) -> Vec<XferEvent> {
        self.xfers.lock().iter().filter(|(r, _)| *r == run).map(|(_, e)| e.clone()).collect()
    }
}

impl TraceSink for VecSink {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        let mut next = self.next.lock();
        let id = RunId(*next);
        *next += 1;
        id
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        self.xforms.lock().push((run, event));
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        self.xfers.lock().push((run, event));
    }
    fn finish_run(&self, _run: RunId) {}
}

/// A decorator sink that tallies per-processor work while forwarding
/// everything to an inner sink — the cheap way to get an execution report
/// without touching the engine.
pub struct ReportingSink<'a> {
    inner: &'a dyn TraceSink,
    invocations: Mutex<std::collections::BTreeMap<ProcessorName, u64>>,
    xform_events: prov_obs::Counter,
    xfer_elements: prov_obs::Counter,
}

/// Per-run execution summary assembled by [`ReportingSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Per processor (scope-qualified), the number of elementary
    /// invocations — i.e. how hard the implicit iteration worked.
    pub invocations: Vec<(ProcessorName, u64)>,
    /// Total elements transferred along arcs.
    pub xfer_elements: u64,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invocations per processor:")?;
        for (p, n) in &self.invocations {
            writeln!(f, "  {p}: {n}")?;
        }
        writeln!(f, "elements transferred: {}", self.xfer_elements)
    }
}

impl<'a> ReportingSink<'a> {
    /// Wraps an inner sink.
    pub fn new(inner: &'a dyn TraceSink) -> Self {
        ReportingSink {
            inner,
            invocations: Mutex::new(Default::default()),
            xform_events: prov_obs::Counter::standalone(),
            xfer_elements: prov_obs::Counter::standalone(),
        }
    }

    /// Exposes this sink's tallies in `registry` as `engine.sink.xforms`
    /// and `engine.sink.xfer_elements` (shared storage, not copies).
    pub fn register_metrics(&self, registry: &prov_obs::Registry) {
        registry.adopt_counter("engine.sink.xforms", &self.xform_events);
        registry.adopt_counter("engine.sink.xfer_elements", &self.xfer_elements);
    }

    /// The accumulated report (across all runs recorded through this
    /// wrapper).
    pub fn report(&self) -> RunReport {
        RunReport {
            invocations: self.invocations.lock().iter().map(|(p, n)| (p.clone(), *n)).collect(),
            xfer_elements: self.xfer_elements.get(),
        }
    }
}

impl TraceSink for ReportingSink<'_> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        self.inner.begin_run(workflow)
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        *self.invocations.lock().entry(event.processor.clone()).or_insert(0) += 1;
        self.xform_events.inc();
        self.inner.record_xform(run, event);
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        self.xfer_elements.inc();
        self.inner.record_xfer(run, event);
    }
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        // Tally here, then hand the whole batch through so the inner sink
        // keeps its single-lock ingest.
        {
            let mut invocations = self.invocations.lock();
            for event in &events {
                match event {
                    TraceEvent::Xform(e) => {
                        *invocations.entry(e.processor.clone()).or_insert(0) += 1;
                        self.xform_events.inc();
                    }
                    TraceEvent::Xfer(_) => self.xfer_elements.inc(),
                }
            }
        }
        self.inner.record_batch(run, events);
    }
    fn finish_run(&self, run: RunId) {
        self.inner.finish_run(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xform_event_displays_paper_notation() {
        let e = XformEvent {
            processor: ProcessorName::from("P"),
            invocation: 0,
            inputs: vec![PortBinding::new("X1", Index::single(1), Value::str("a"))],
            outputs: vec![PortBinding::new("Y", Index::from_slice(&[1, 0]), Value::str("y"))],
        };
        assert_eq!(e.to_string(), "⟨P:X1[1], \"a\"⟩ → ⟨P:Y[1,0], \"y\"⟩");
    }

    #[test]
    fn xfer_event_displays_paper_notation() {
        let e = XferEvent {
            src: PortRef::new("Q", "Y"),
            src_index: Index::single(2),
            dst: PortRef::new("P", "X1"),
            dst_index: Index::single(2),
            value: Value::str("v"),
        };
        assert!(e.to_string().starts_with("⟨Q:Y[2], \"v\"⟩ → ⟨P:X1[2]"));
    }

    #[test]
    fn null_sink_hands_out_distinct_run_ids() {
        let s = NullSink::default();
        let a = s.begin_run(&"wf".into());
        let b = s.begin_run(&"wf".into());
        assert_ne!(a, b);
    }

    #[test]
    fn reporting_sink_tallies_and_forwards() {
        let base = VecSink::new();
        let reporting = ReportingSink::new(&base);
        let run = reporting.begin_run(&"wf".into());
        for i in 0..3 {
            reporting.record_xform(
                run,
                XformEvent {
                    processor: ProcessorName::from("P"),
                    invocation: i,
                    inputs: vec![],
                    outputs: vec![PortBinding::new("y", Index::single(i), Value::int(1))],
                },
            );
        }
        reporting.record_xfer(
            run,
            XferEvent {
                src: PortRef::new("P", "y"),
                src_index: Index::empty(),
                dst: PortRef::new("wf", "out"),
                dst_index: Index::empty(),
                value: Value::int(1),
            },
        );
        reporting.finish_run(run);
        let report = reporting.report();
        assert_eq!(report.invocations, vec![(ProcessorName::from("P"), 3)]);
        assert_eq!(report.xfer_elements, 1);
        assert!(report.to_string().contains("P: 3"));
        // Everything reached the inner sink too.
        assert_eq!(base.record_count(), 4);
    }

    #[test]
    fn default_record_batch_preserves_per_event_order() {
        let s = VecSink::new();
        let run = s.begin_run(&"wf".into());
        let xf = XformEvent {
            processor: ProcessorName::from("P"),
            invocation: 0,
            inputs: vec![],
            outputs: vec![PortBinding::new("y", Index::single(0), Value::int(1))],
        };
        let tr = XferEvent {
            src: PortRef::new("P", "y"),
            src_index: Index::single(0),
            dst: PortRef::new("wf", "out"),
            dst_index: Index::single(0),
            value: Value::int(1),
        };
        s.record_batch(run, vec![TraceEvent::Xfer(tr.clone()), TraceEvent::Xform(xf.clone())]);
        assert_eq!(s.xforms_of(run), vec![xf]);
        assert_eq!(s.xfers_of(run), vec![tr]);
    }

    #[test]
    fn reporting_sink_tallies_batches() {
        let base = VecSink::new();
        let reporting = ReportingSink::new(&base);
        let run = reporting.begin_run(&"wf".into());
        let xf = |i| {
            TraceEvent::Xform(XformEvent {
                processor: ProcessorName::from("P"),
                invocation: i,
                inputs: vec![],
                outputs: vec![PortBinding::new("y", Index::single(i), Value::int(1))],
            })
        };
        let tr = TraceEvent::Xfer(XferEvent {
            src: PortRef::new("P", "y"),
            src_index: Index::empty(),
            dst: PortRef::new("wf", "out"),
            dst_index: Index::empty(),
            value: Value::int(1),
        });
        reporting.record_batch(run, vec![xf(0), xf(1), tr]);
        let report = reporting.report();
        assert_eq!(report.invocations, vec![(ProcessorName::from("P"), 2)]);
        assert_eq!(report.xfer_elements, 1);
        assert_eq!(base.record_count(), 3);
    }

    #[test]
    fn vec_sink_collects_and_filters_by_run() {
        let s = VecSink::new();
        let r1 = s.begin_run(&"wf".into());
        let r2 = s.begin_run(&"wf".into());
        let ev = XferEvent {
            src: PortRef::new("A", "y"),
            src_index: Index::empty(),
            dst: PortRef::new("B", "x"),
            dst_index: Index::empty(),
            value: Value::int(1),
        };
        s.record_xfer(r1, ev.clone());
        s.record_xfer(r2, ev.clone());
        assert_eq!(s.record_count(), 2);
        assert_eq!(s.xfers_of(r1).len(), 1);
        assert_eq!(s.xforms_of(r1).len(), 0);
    }
}
