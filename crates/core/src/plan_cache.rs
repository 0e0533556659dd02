//! Caching of compiled lineage plans.
//!
//! "Since the workflow graph is generally much smaller than any provenance
//! graph, it is feasible to cache the nodes visited in one query to speed
//! up their access in subsequent queries, as all queries on a provenance
//! trace share the same workflow structure" (§3). A [`PlanCache`] memoises
//! whole [`LineagePlan`]s per `(target, index, 𝒫)` — the warm-cache
//! strategy of Fig. 9.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use prov_model::RunId;
use prov_obs::{Counter, Registry};
use prov_store::TraceStore;

use crate::{IndexProj, LineageAnswer, LineagePlan, LineageQuery, Result};

/// Entries sharing one pre-computed query hash; disambiguated by full
/// query equality.
type Bucket = Vec<(LineageQuery, Arc<LineagePlan>)>;

/// A thread-safe cache of compiled plans for one workflow.
///
/// Lookup cost is kept off the query hot path: the full query (target,
/// index and the whole focus set) is hashed **once** per lookup into a
/// `u64` bucket key; within a bucket only that cheap pre-computed key's
/// collisions are compared with full equality. Hit/miss counters are
/// lock-free atomics, so concurrent query threads never serialise on
/// bookkeeping.
pub struct PlanCache<'a> {
    index_proj: IndexProj<'a>,
    /// Pre-computed query hash → entries whose query has that hash.
    buckets: Mutex<HashMap<u64, Bucket>>,
    hits: Counter,
    misses: Counter,
    /// Optional event journal; every compile (cache miss) is recorded as
    /// a `PlanCacheMiss` with the query's fingerprint. Disabled by
    /// default (one branch per miss).
    journal: prov_obs::Journal,
}

/// Point-in-time hit/miss counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
}

impl<'a> PlanCache<'a> {
    /// A cache in front of the given INDEXPROJ processor.
    pub fn new(index_proj: IndexProj<'a>) -> Self {
        PlanCache {
            index_proj,
            buckets: Mutex::new(HashMap::new()),
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            journal: prov_obs::Journal::disabled(),
        }
    }

    /// Attaches an event journal: cache misses (plan compiles) are
    /// recorded as `PlanCacheMiss` events keyed by query fingerprint.
    pub fn with_journal(mut self, journal: &prov_obs::Journal) -> Self {
        self.journal = journal.clone();
        self
    }

    /// Adopts the hit/miss counters into `registry` as `plan_cache.hits`
    /// / `plan_cache.misses` (shared storage, no extra lookup-path cost).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.adopt_counter("plan_cache.hits", &self.hits);
        registry.adopt_counter("plan_cache.misses", &self.misses);
    }

    /// The query's stable fingerprint: one hash over the whole query
    /// (target, index and focus set). Doubles as the cache bucket key and
    /// as the plan fingerprint in journal events and the slow-query log,
    /// so `tprov slow` aggregates line up with `PlanCacheMiss` events.
    /// Impact queries hash into the same space.
    pub fn fingerprint(query: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        query.hash(&mut h);
        h.finish()
    }

    /// The plan for `query`, compiled at most once.
    pub fn plan(&self, query: &LineageQuery) -> Result<Arc<LineagePlan>> {
        let key = Self::fingerprint(query);
        if let Some(bucket) = self.buckets.lock().get(&key) {
            if let Some((_, p)) = bucket.iter().find(|(q, _)| q == query) {
                self.hits.inc();
                return Ok(Arc::clone(p));
            }
        }
        // Compile outside the lock: planning is pure graph work and may be
        // slow; concurrent misses on the same query both compile, but only
        // one entry survives.
        let plan = Arc::new(self.index_proj.plan(query)?);
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(key).or_default();
        if let Some((_, p)) = bucket.iter().find(|(q, _)| q == query) {
            // Another thread inserted while we compiled.
            self.hits.inc();
            return Ok(Arc::clone(p));
        }
        bucket.push((query.clone(), Arc::clone(&plan)));
        self.misses.inc();
        self.journal.record(prov_obs::JournalEvent::PlanCacheMiss { fingerprint: key });
        Ok(plan)
    }

    /// Plans (or reuses) and executes over one run.
    pub fn run(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &LineageQuery,
    ) -> Result<LineageAnswer> {
        self.plan(query)?.execute(store, run)
    }

    /// Plans (or reuses) and executes over several runs.
    pub fn run_multi(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
    ) -> Result<Vec<LineageAnswer>> {
        self.plan(query)?.execute_multi(store, runs)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.buckets.lock().values().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_model::{Index, PortRef, ProcessorName};

    fn tiny() -> prov_dataflow::Dataflow {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::Int));
        b.processor_with_behavior("A", "identity")
            .in_port("x", PortType::atom(BaseType::Int))
            .out_port("y", PortType::atom(BaseType::Int));
        b.arc_from_input("in", "A", "x").unwrap();
        b.output("out", PortType::list(BaseType::Int));
        b.arc_to_output("A", "y", "out").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn identical_queries_hit_the_cache() {
        let df = tiny();
        let cache = PlanCache::new(IndexProj::new(&df));
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        let p1 = cache.plan(&q).unwrap();
        let p2 = cache.plan(&q).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats(), PlanCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_indices_are_distinct_entries() {
        let df = tiny();
        let cache = PlanCache::new(IndexProj::new(&df));
        for i in 0..3 {
            let q = LineageQuery::focused(
                PortRef::new("wf", "out"),
                Index::single(i),
                [ProcessorName::from("wf")],
            );
            cache.plan(&q).unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), PlanCacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn concurrent_lookups_converge_on_one_entry() {
        let df = tiny();
        let cache = PlanCache::new(IndexProj::new(&df));
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..25 {
                        cache.plan(&q).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
        let PlanCacheStats { hits, misses } = cache.stats();
        // Every lookup is accounted exactly once, however the races fall.
        assert_eq!(hits + misses, 200);
        assert!(misses >= 1);
    }

    #[test]
    fn registered_counters_mirror_stats() {
        let df = tiny();
        let cache = PlanCache::new(IndexProj::new(&df));
        let registry = prov_obs::Registry::new();
        cache.register_metrics(&registry);
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        cache.plan(&q).unwrap();
        cache.plan(&q).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("plan_cache.hits"), cache.stats().hits);
        assert_eq!(snap.counter("plan_cache.misses"), cache.stats().misses);
        assert_eq!(snap.counter("plan_cache.hits"), 1);
    }

    #[test]
    fn different_focus_sets_are_distinct_entries() {
        let df = tiny();
        let cache = PlanCache::new(IndexProj::new(&df));
        let base = PortRef::new("wf", "out");
        cache
            .plan(&LineageQuery::focused(base.clone(), Index::empty(), [ProcessorName::from("wf")]))
            .unwrap();
        cache
            .plan(&LineageQuery::focused(base, Index::empty(), [ProcessorName::from("A")]))
            .unwrap();
        assert_eq!(cache.len(), 2);
    }
}
