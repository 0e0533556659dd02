//! Span-based profiling with explicit start/stop guards.
//!
//! No `tracing` dependency: a [`Profiler`] is a shared vector of finished
//! [`SpanRecord`]s plus a common time origin. Instrumented code opens a
//! [`SpanGuard`] (one `Instant::now()`), optionally attaches numeric
//! arguments, and closes it explicitly with [`SpanGuard::stop`] or
//! implicitly on drop. A disabled profiler never reads the clock and
//! never locks — guards from it are inert.
//!
//! Spans record the OS thread they finished on, so work from concurrent
//! threads (the engine's parallel scheduler, daemon sessions) aggregates
//! correctly: every thread pushes into the same vector under a short lock,
//! and the Chrome trace export lays threads out as separate `tid` rows.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use serde::Serialize;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name, e.g. `indexproj.step`.
    pub name: Cow<'static, str>,
    /// Category: the paper's cost account this span charges (`t1`, `t2`)
    /// or a subsystem tag (`engine`, `wal`, `query`).
    pub cat: &'static str,
    /// Start offset from the profiler's origin, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense per-profiler thread id (0 = first thread seen).
    pub tid: u64,
    /// Numeric span arguments (rows read, traversal depth, …).
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct ProfilerInner {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    tids: Mutex<HashMap<ThreadId, u64>>,
}

impl ProfilerInner {
    fn tid(&self) -> u64 {
        let mut tids = self.tids.lock().unwrap_or_else(|e| e.into_inner());
        let next = tids.len() as u64;
        *tids.entry(std::thread::current().id()).or_insert(next)
    }
}

/// A shared recorder of spans. Cloning shares the same timeline.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfilerInner>>,
}

impl Profiler {
    /// An enabled profiler with its origin at the current instant.
    pub fn new() -> Self {
        Profiler::with_origin(Instant::now())
    }

    /// An enabled profiler whose timestamps are offsets from `origin` —
    /// lets other recorders (the event journal) share one timeline.
    pub fn with_origin(origin: Instant) -> Self {
        Profiler {
            inner: Some(Arc::new(ProfilerInner {
                origin,
                spans: Mutex::new(Vec::new()),
                tids: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// A profiler that records nothing; guards from it are inert and
    /// never read the clock.
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. `cat` is the cost account it charges (`t1`/`t2`) or
    /// a subsystem tag. Dynamic names are accepted so callers can label
    /// per-processor spans; format them only when [`Profiler::is_enabled`].
    pub fn span(&self, name: impl Into<Cow<'static, str>>, cat: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { inner: None },
            Some(p) => SpanGuard {
                inner: Some(SpanGuardInner {
                    profiler: Arc::clone(p),
                    name: name.into(),
                    cat,
                    start: Instant::now(),
                    args: Vec::new(),
                }),
            },
        }
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(p) => p.spans.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }

    /// Per-name totals over all recorded spans, sorted by name.
    pub fn aggregate(&self) -> Vec<SpanAgg> {
        let mut by_name: HashMap<(Cow<'static, str>, &'static str), SpanAgg> = HashMap::new();
        for s in self.spans() {
            let agg = by_name.entry((s.name.clone(), s.cat)).or_insert_with(|| SpanAgg {
                name: s.name.into_owned(),
                cat: s.cat,
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += s.dur_ns;
            agg.max_ns = agg.max_ns.max(s.dur_ns);
        }
        let mut out: Vec<SpanAgg> = by_name.into_values().collect();
        out.sort_by(|a, b| a.name.cmp(&b.name).then(a.cat.cmp(b.cat)));
        out
    }

    /// Total nanoseconds across all spans in category `cat`.
    pub fn total_ns(&self, cat: &str) -> u64 {
        self.spans().iter().filter(|s| s.cat == cat).map(|s| s.dur_ns).sum()
    }

    /// The recorded timeline as Chrome/Perfetto trace-event JSON objects
    /// (complete events, `ph: "X"`, microsecond timestamps). Serialize
    /// the returned vector as a JSON array and load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_events(&self) -> Vec<ChromeEvent> {
        self.spans()
            .into_iter()
            .map(|s| ChromeEvent {
                name: s.name.into_owned(),
                cat: s.cat.to_string(),
                ph: "X",
                ts: s.start_ns as f64 / 1000.0,
                dur: s.dur_ns as f64 / 1000.0,
                pid: 1,
                tid: s.tid,
                s: None,
                args: s.args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            })
            .collect()
    }
}

/// Per-span-name aggregate, for tabular reports.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Category (cost account).
    pub cat: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// One Chrome trace-event: a "complete event" (`ph: "X"`) from the
/// profiler, or an "instant event" (`ph: "i"`) from the journal.
#[derive(Debug, Clone, Serialize)]
pub struct ChromeEvent {
    /// Event name shown in the timeline.
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Event phase: `"X"` (complete, with duration) or `"i"` (instant).
    pub ph: &'static str,
    /// Start timestamp in microseconds from the profiler origin.
    pub ts: f64,
    /// Duration in microseconds (0 for instant events).
    pub dur: f64,
    /// Process id (constant 1; the profiler is in-process).
    pub pid: u64,
    /// Dense thread id assigned in first-seen order.
    pub tid: u64,
    /// Instant-event scope (`"g"` = global); `null` on complete events.
    pub s: Option<&'static str>,
    /// Numeric span arguments.
    pub args: HashMap<String, u64>,
}

struct SpanGuardInner {
    profiler: Arc<ProfilerInner>,
    name: Cow<'static, str>,
    cat: &'static str,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

/// An open span; records itself when stopped or dropped.
#[must_use = "a span guard measures until it is stopped or dropped"]
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl SpanGuard {
    /// An inert guard, for callers that branch on profiler state
    /// themselves (e.g. to avoid formatting a dynamic span name).
    pub fn inert() -> Self {
        SpanGuard { inner: None }
    }

    /// Whether this guard will record a span.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a numeric argument (visible in Chrome trace `args`).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(g) = &mut self.inner {
            g.args.push((key, value));
        }
    }

    /// Closes the span now. Equivalent to dropping, but explicit at call
    /// sites where span extent matters.
    pub fn stop(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(g) = self.inner.take() else { return };
        let end = Instant::now();
        let start_ns = g.start.duration_since(g.profiler.origin).as_nanos() as u64;
        let dur_ns = end.duration_since(g.start).as_nanos() as u64;
        let tid = g.profiler.tid();
        let record = SpanRecord { name: g.name, cat: g.cat, start_ns, dur_ns, tid, args: g.args };
        g.profiler.spans.lock().unwrap_or_else(|e| e.into_inner()).push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        let mut g = p.span("x", "t1");
        g.arg("rows", 3);
        g.stop();
        assert!(p.spans().is_empty());
        assert!(!p.is_enabled());
    }

    #[test]
    fn spans_record_name_cat_args_and_nesting() {
        let p = Profiler::new();
        {
            let mut outer = p.span("outer", "t1");
            outer.arg("k", 1);
            let inner = p.span("inner", "t2");
            inner.stop();
            outer.stop();
        }
        let spans = p.spans();
        assert_eq!(spans.len(), 2);
        // Completion order: inner first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].args, vec![("k", 1)]);
        // Outer encloses inner on the timeline.
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[1].start_ns + spans[1].dur_ns >= spans[0].start_ns + spans[0].dur_ns);
    }

    #[test]
    fn cross_thread_spans_share_one_timeline() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        p.span("work", "t2").stop();
                    }
                });
            }
        });
        let spans = p.spans();
        assert_eq!(spans.len(), 20);
        let tids: std::collections::HashSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert!(tids.len() >= 2, "expected several worker tids, got {tids:?}");
        let agg = p.aggregate();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].count, 20);
    }

    #[test]
    fn chrome_events_have_required_fields() {
        let p = Profiler::new();
        let mut g = p.span("step", "t2");
        g.arg("rows", 7);
        g.stop();
        let events = p.chrome_trace_events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.ph, "X");
        assert_eq!(e.name, "step");
        assert!(e.dur >= 0.0);
        assert_eq!(e.args.get("rows"), Some(&7));
    }

    #[test]
    fn total_ns_sums_per_category() {
        let p = Profiler::new();
        p.span("a", "t1").stop();
        p.span("b", "t2").stop();
        p.span("c", "t2").stop();
        let t2: u64 = p.spans().iter().filter(|s| s.cat == "t2").map(|s| s.dur_ns).sum();
        assert_eq!(p.total_ns("t2"), t2);
        assert_eq!(p.total_ns("nope"), 0);
    }
}
