//! The bookkeeping every executor (NI, INDEXPROJ, impact) shares: the
//! `QueryStarted` / `QueryFinished` journal bracket with its drift check,
//! and the between-steps deadline check.

use std::time::Instant;

use prov_model::RunId;
use prov_obs::{JournalEvent, Obs, QueryCtx};
use prov_store::ProbeStats;

use crate::{CoreError, CostEstimate, Result};

/// One execution of one query over one run, from start to finish.
pub(crate) struct Lifecycle<'a> {
    obs: &'a Obs,
    ctx: &'a QueryCtx,
    started: Instant,
}

impl<'a> Lifecycle<'a> {
    /// Starts the clock and journals `QueryStarted`.
    pub(crate) fn start(obs: &'a Obs, ctx: &'a QueryCtx) -> Self {
        let started = Instant::now();
        if obs.journal.is_enabled() {
            obs.journal
                .record(JournalEvent::QueryStarted { trace: ctx.trace, query: ctx.query.clone() });
        }
        Lifecycle { obs, ctx, started }
    }

    /// Whether `QueryFinished` will be journalled — i.e. whether the
    /// executor needs to time its trace accesses for the t1/t2 split.
    pub(crate) fn journals(&self) -> bool {
        self.obs.journal.is_enabled()
    }

    /// The typed refusal once the context's deadline has passed; executors
    /// call this between steps / hops.
    pub(crate) fn check_deadline(&self) -> Result<()> {
        if self.ctx.deadline_exceeded() {
            return Err(CoreError::DeadlineExceeded { query: self.ctx.query.clone() });
        }
        Ok(())
    }

    /// Journals `QueryFinished` with the execution's exact probe totals,
    /// checking them against the context's cost prediction (if any).
    /// `t2_ns` is the time spent in trace access; `None` charges the whole
    /// duration to t2 (a traversal that interleaves graph bookkeeping and
    /// trace access too finely to split).
    pub(crate) fn finish(
        self,
        run: RunId,
        steps: usize,
        bindings: usize,
        totals: ProbeStats,
        t2_ns: Option<u64>,
    ) {
        if !self.journals() {
            return;
        }
        let c = self.ctx;
        let dur = self.started.elapsed();
        let dur_ns = dur.as_nanos() as u64;
        let t2_ns = t2_ns.unwrap_or(dur_ns);
        let drift = match (c.predicted_lookups, c.predicted_rows) {
            (Some(lookups), Some(rows)) => {
                let est = CostEstimate {
                    per_step: vec![],
                    index_lookups: lookups,
                    rows_scanned: rows,
                    grounded: c.rows_grounded,
                };
                let actual_rows = totals.records_read + totals.rows_scanned;
                !est.check(totals.index_lookups, actual_rows, c.tolerance).ok
            }
            _ => false,
        };
        self.obs.journal.record(JournalEvent::QueryFinished {
            trace: c.trace,
            run: run.0,
            fingerprint: c.fingerprint,
            steps: steps as u32,
            bindings: bindings as u64,
            // t1 is the remainder: everything that was not trace access.
            t1_ns: dur_ns.saturating_sub(t2_ns),
            t2_ns,
            dur_ns,
            index_lookups: totals.index_lookups,
            records_read: totals.records_read,
            rows_scanned: totals.rows_scanned,
            predicted_lookups: c.predicted_lookups,
            predicted_rows: c.predicted_rows,
            drift,
            slow: c.is_slow(dur),
        });
    }
}
