//! Sidecar persistence for the event journal and the slow-query log.
//!
//! Query/run commands drain the in-process journal ring on exit and
//! append the events to `<db>.journal.jsonl` (one
//! [`Stamped`](prov_obs::Stamped) JSON object per line); finished queries
//! that crossed the slow threshold (`TPROV_SLOW_QUERY_MS`) or whose
//! observed cost drifted from the cost model's prediction additionally get
//! one [`SlowRecord`] line in `<db>.slow.jsonl`. `tprov tail` and
//! `tprov slow` read these files back, so the journal survives across
//! processes without any daemon.

use std::collections::HashMap;
use std::io::Write as _;

use prov_obs::{Journal, JournalEvent, TraceId};

/// The journal sidecar next to database `db`.
pub fn journal_path(db: &str) -> String {
    format!("{db}.journal.jsonl")
}

/// The slow-query log next to database `db`.
pub fn slow_path(db: &str) -> String {
    format!("{db}.slow.jsonl")
}

/// One line of the slow-query log: a finished query that was slow and/or
/// drifted from the cost model. Field names are part of the CLI contract
/// (`tprov slow` and external scrapers parse them).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SlowRecord {
    /// Trace id of the query execution.
    pub trace: u64,
    /// Plan fingerprint — the aggregation key of `tprov slow`, matching
    /// `PlanCacheMiss` events.
    pub fingerprint: u64,
    /// Query source text (from the paired `QueryStarted` event).
    pub query: String,
    /// Run the execution covered.
    pub run: u64,
    /// End-to-end microseconds.
    pub dur_us: u64,
    /// Graph-traversal/assembly microseconds (the paper's t1).
    pub t1_us: u64,
    /// Trace-access microseconds (the paper's t2).
    pub t2_us: u64,
    /// Total index lookups observed.
    pub index_lookups: u64,
    /// Total rows observed (records materialised + rows range-scanned).
    pub rows: u64,
    /// The cost model's lookup prediction, when one was attached.
    pub predicted_lookups: Option<u64>,
    /// The cost model's row prediction, when one was attached.
    pub predicted_rows: Option<u64>,
    /// Duration crossed `TPROV_SLOW_QUERY_MS`.
    pub slow: bool,
    /// Observed cost violated the prediction beyond tolerance —
    /// cost-model drift.
    pub drift: bool,
}

/// Drains `journal` into the sidecar files next to `db`. Every event is
/// appended to the journal file; `QueryFinished` events flagged slow or
/// drifted also produce a [`SlowRecord`]. Returns `(events, slow_lines)`
/// appended. A disabled journal writes nothing.
pub fn persist(db: &str, journal: &Journal) -> Result<(usize, usize), String> {
    let events = journal.drain();
    if events.is_empty() {
        return Ok((0, 0));
    }
    // Query text lives only on QueryStarted; key it by trace id so the
    // matching QueryFinished can carry it into the slow log.
    let queries: HashMap<TraceId, &str> = events
        .iter()
        .filter_map(|e| match &e.event {
            JournalEvent::QueryStarted { trace, query } => Some((*trace, query.as_str())),
            _ => None,
        })
        .collect();

    let mut journal_lines = String::new();
    let mut slow_lines = String::new();
    let mut slow_count = 0usize;
    for e in &events {
        journal_lines.push_str(&serde_json::to_string(e).map_err(|err| err.to_string())?);
        journal_lines.push('\n');
        if let JournalEvent::QueryFinished {
            trace,
            run,
            fingerprint,
            t1_ns,
            t2_ns,
            dur_ns,
            index_lookups,
            records_read,
            rows_scanned,
            predicted_lookups,
            predicted_rows,
            drift,
            slow,
            ..
        } = &e.event
        {
            if *slow || *drift {
                let rec = SlowRecord {
                    trace: trace.0,
                    fingerprint: *fingerprint,
                    query: queries.get(trace).unwrap_or(&"").to_string(),
                    run: *run,
                    dur_us: dur_ns / 1_000,
                    t1_us: t1_ns / 1_000,
                    t2_us: t2_ns / 1_000,
                    index_lookups: *index_lookups,
                    rows: records_read + rows_scanned,
                    predicted_lookups: *predicted_lookups,
                    predicted_rows: *predicted_rows,
                    slow: *slow,
                    drift: *drift,
                };
                slow_lines.push_str(&serde_json::to_string(&rec).map_err(|err| err.to_string())?);
                slow_lines.push('\n');
                slow_count += 1;
            }
        }
    }

    append(&journal_path(db), &journal_lines)?;
    if slow_count > 0 {
        append(&slow_path(db), &slow_lines)?;
    }
    Ok((events.len(), slow_count))
}

fn append(path: &str, contents: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    f.write_all(contents.as_bytes()).map_err(|e| format!("cannot append to {path}: {e}"))
}
