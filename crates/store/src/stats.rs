//! Query access statistics.
//!
//! Wall-clock comparisons depend on hardware; record-access counts do not.
//! Every index lookup and record read performed by the store is counted
//! here, so benches can report both (the paper's §4 analysis of `t1` vs
//! `t2` is exactly an accounting of graph-traversal work vs trace access
//! work).
//!
//! The counters are `prov-obs` [`Counter`]s in standalone mode — the same
//! relaxed atomics as before, but adoptable by a metrics
//! [`Registry`](prov_obs::Registry) under the stable names
//! `store.index_lookups` / `store.records_read` / `store.rows_scanned`
//! (see [`QueryStats::register`]): one storage location, no double
//! counting, no extra hot-path cost.

use prov_obs::{Counter, Registry};

/// Monotone counters of store access work. Cheap to share (`&QueryStats`),
/// safe to bump from multiple threads. Clones share the same atomic cells
/// (see [`prov_obs::Counter`]), so a [`ReadView`](crate::ReadView) carrying
/// a cloned handle still feeds the store-wide totals.
#[derive(Debug, Clone)]
pub struct QueryStats {
    index_lookups: Counter,
    records_read: Counter,
    rows_scanned: Counter,
}

/// Thread-local accumulator for one query's store-access work.
///
/// The shared [`QueryStats`] counters are relaxed atomics; bumping them on
/// every index probe from several query workers means repeated RMWs on the
/// same cache lines. Probe paths instead count into a plain-`u64`
/// `ProbeStats` on the stack and [`flush_into`](ProbeStats::flush_into) the
/// totals exactly once per store call — same final counter values (addition
/// is associative), a fraction of the shared-line traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Number of index probes performed so far.
    pub index_lookups: u64,
    /// Number of rows materialised so far.
    pub records_read: u64,
    /// Number of heap rows examined by table-order access paths so far.
    pub rows_scanned: u64,
}

impl ProbeStats {
    /// Fresh zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one index probe.
    pub fn count_index_lookup(&mut self) {
        self.index_lookups += 1;
    }

    /// Counts `n` record reads.
    pub fn count_records(&mut self, n: usize) {
        self.records_read += n as u64;
    }

    /// Counts `n` heap rows examined by a table-order access path.
    pub fn count_rows_scanned(&mut self, n: usize) {
        self.rows_scanned += n as u64;
    }

    /// Adds the accumulated deltas to the shared counters in three atomic
    /// adds (instead of one per probe).
    pub fn flush_into(self, stats: &QueryStats) {
        if self.index_lookups > 0 {
            stats.index_lookups.add(self.index_lookups);
        }
        if self.records_read > 0 {
            stats.records_read.add(self.records_read);
        }
        if self.rows_scanned > 0 {
            stats.rows_scanned.add(self.rows_scanned);
        }
    }
}

impl Default for QueryStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`ProbeStats`] accumulator that flushes into shared [`QueryStats`]
/// when dropped — including on early returns, `?` propagation, and
/// panics — so work already performed is never lost from the counters.
///
/// Derefs to [`ProbeStats`], so probe code counts through it unchanged.
#[derive(Debug)]
pub struct ProbeGuard<'a> {
    stats: &'a QueryStats,
    probe: ProbeStats,
}

impl<'a> ProbeGuard<'a> {
    /// A zeroed accumulator bound to `stats`.
    pub fn new(stats: &'a QueryStats) -> Self {
        ProbeGuard { stats, probe: ProbeStats::new() }
    }

    /// The deltas accumulated so far (they still flush on drop).
    pub fn so_far(&self) -> ProbeStats {
        self.probe
    }
}

impl std::ops::Deref for ProbeGuard<'_> {
    type Target = ProbeStats;
    fn deref(&self) -> &ProbeStats {
        &self.probe
    }
}

impl std::ops::DerefMut for ProbeGuard<'_> {
    fn deref_mut(&mut self) -> &mut ProbeStats {
        &mut self.probe
    }
}

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        self.probe.flush_into(self.stats);
    }
}

impl QueryStats {
    /// A drop-flushed accumulator bound to these counters.
    pub fn probe_guard(&self) -> ProbeGuard<'_> {
        ProbeGuard::new(self)
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of index probes (exact-key searches and descendant scans).
    pub index_lookups: u64,
    /// Number of rows materialised out of the tables.
    pub records_read: u64,
    /// Number of heap rows physically examined by table-order access paths
    /// (`xforms_of_run`/`xfers_of_run`). With per-run row spans this equals
    /// the rows returned; a table scan would charge the whole heap — the
    /// regression the counter exists to catch.
    pub rows_scanned: u64,
}

impl QueryStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        QueryStats {
            index_lookups: Counter::standalone(),
            records_read: Counter::standalone(),
            rows_scanned: Counter::standalone(),
        }
    }

    /// Counts one index probe.
    pub fn count_index_lookup(&self) {
        self.index_lookups.inc();
    }

    /// Counts `n` record reads.
    pub fn count_records(&self, n: usize) {
        self.records_read.add(n as u64);
    }

    /// Counts `n` heap rows examined by a table-order access path.
    pub fn count_rows_scanned(&self, n: usize) {
        self.rows_scanned.add(n as u64);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            index_lookups: self.index_lookups.get(),
            records_read: self.records_read.get(),
            rows_scanned: self.rows_scanned.get(),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.index_lookups.set(0);
        self.records_read.set(0);
        self.rows_scanned.set(0);
    }

    /// Adopts the counters into `registry` under `store.*` names: the
    /// registry shares the same atomics, so later increments show up in
    /// snapshots without any extra bookkeeping on the query path.
    pub fn register(&self, registry: &Registry) {
        registry.adopt_counter("store.index_lookups", &self.index_lookups);
        registry.adopt_counter("store.records_read", &self.records_read);
        registry.adopt_counter("store.rows_scanned", &self.rows_scanned);
    }
}

impl StatsSnapshot {
    /// Work performed between `earlier` and `self`.
    pub fn since(self, earlier: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            index_lookups: self.index_lookups - earlier.index_lookups,
            records_read: self.records_read - earlier.records_read,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = QueryStats::new();
        s.count_index_lookup();
        s.count_index_lookup();
        s.count_records(5);
        let snap = s.snapshot();
        assert_eq!(snap.index_lookups, 2);
        assert_eq!(snap.records_read, 5);
        s.reset();
        assert_eq!(s.snapshot().index_lookups, 0);
        assert_eq!(s.snapshot().records_read, 0);
    }

    #[test]
    fn since_computes_deltas() {
        let s = QueryStats::new();
        s.count_records(3);
        let a = s.snapshot();
        s.count_records(4);
        s.count_index_lookup();
        let d = s.snapshot().since(a);
        assert_eq!(d.records_read, 4);
        assert_eq!(d.index_lookups, 1);
    }

    #[test]
    fn counters_are_thread_safe() {
        let s = QueryStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.count_index_lookup();
                        s.count_records(2);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.index_lookups, 4000);
        assert_eq!(snap.records_read, 8000);
    }

    #[test]
    fn probe_stats_flush_matches_direct_counting() {
        // The same sequence of probe events, counted directly vs batched
        // through a ProbeStats, must land on identical totals.
        let direct = QueryStats::new();
        let batched = QueryStats::new();
        let mut local = ProbeStats::new();
        for i in 0..17usize {
            direct.count_index_lookup();
            direct.count_records(i);
            direct.count_rows_scanned(i * 2);
            local.count_index_lookup();
            local.count_records(i);
            local.count_rows_scanned(i * 2);
        }
        local.flush_into(&batched);
        assert_eq!(direct.snapshot(), batched.snapshot());
    }

    #[test]
    fn probe_guard_flushes_on_early_return() {
        let stats = QueryStats::new();
        let probe_that_errs = || -> Result<(), String> {
            let mut probe = stats.probe_guard();
            probe.count_index_lookup();
            probe.count_rows_scanned(5);
            Err("index corrupt".to_string())?;
            probe.count_records(99); // never reached
            Ok(())
        };
        assert!(probe_that_errs().is_err());
        let snap = stats.snapshot();
        assert_eq!(snap.index_lookups, 1, "lookup before the Err is counted");
        assert_eq!(snap.rows_scanned, 5, "rows scanned before the Err are counted");
        assert_eq!(snap.records_read, 0);
    }

    #[test]
    fn probe_guard_flushes_on_panic() {
        let stats = QueryStats::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut probe = stats.probe_guard();
            probe.count_index_lookup();
            probe.count_records(3);
            panic!("probe blew up mid-flight");
        }));
        assert!(result.is_err());
        let snap = stats.snapshot();
        assert_eq!(snap.index_lookups, 1);
        assert_eq!(snap.records_read, 3);
    }

    #[test]
    fn cloned_stats_share_the_same_cells() {
        let s = QueryStats::new();
        let view_handle = s.clone();
        view_handle.count_index_lookup();
        view_handle.count_records(2);
        assert_eq!(s.snapshot().index_lookups, 1);
        assert_eq!(s.snapshot().records_read, 2);
    }

    #[test]
    fn registered_counters_share_storage_with_the_registry() {
        let s = QueryStats::new();
        let registry = Registry::new();
        s.register(&registry);
        s.count_index_lookup();
        s.count_records(3);
        s.count_rows_scanned(7);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("store.index_lookups"), 1);
        assert_eq!(snap.counter("store.records_read"), 3);
        assert_eq!(snap.counter("store.rows_scanned"), 7);
    }
}
