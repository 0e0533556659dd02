//! Caching of compiled lineage plans, and of the specifications they are
//! compiled against.
//!
//! "Since the workflow graph is generally much smaller than any provenance
//! graph, it is feasible to cache the nodes visited in one query to speed
//! up their access in subsequent queries, as all queries on a provenance
//! trace share the same workflow structure" (§3). A [`PlanCache`] memoises
//! whole [`LineagePlan`]s per `(target, index, 𝒫)` — the warm-cache
//! strategy of Fig. 9 — for a specification its caller holds; a
//! [`WorkflowCache`] does the same for the specifications a store
//! registers, and keeps those parsed as well.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use prov_dataflow::{Dataflow, DepthInfo};
use prov_model::{ProcessorName, RunId};
use prov_obs::{Counter, Journal, JournalEvent, Obs, Registry};
use prov_store::TraceStore;

use crate::{IndexProj, LineageAnswer, LineagePlan, LineageQuery, Result};

/// Most plans one memo holds. Plans are keyed by the concrete index, so a
/// client sweeping indexes would otherwise grow a long-lived memo over the
/// whole `d²` index space; a full memo forgets everything and starts over
/// (the hot queries recompile once, ~100 µs each). 4096 holds a full sweep
/// of one target at the paper's largest `d = 50`. Superseded by
/// index-parametric plan templates (ROADMAP item 3), which bound the memo
/// by ports × focus sets instead.
pub const PLAN_MEMO_CAP: usize = 4096;

/// Entries sharing one pre-computed query hash; disambiguated by full
/// query equality.
type Bucket = Vec<(LineageQuery, Arc<LineagePlan>)>;

#[derive(Default)]
struct Buckets {
    /// Pre-computed query hash → entries whose query has that hash.
    by_hash: HashMap<u64, Bucket>,
    /// Plans over all buckets; at most [`PLAN_MEMO_CAP`].
    len: usize,
}

impl Buckets {
    fn get(&self, key: u64, query: &LineageQuery) -> Option<Arc<LineagePlan>> {
        self.by_hash.get(&key)?.iter().find(|(q, _)| q == query).map(|(_, p)| Arc::clone(p))
    }
}

/// The plan memo itself, independent of where the specification lives:
/// [`PlanCache`] puts it in front of a borrowed [`IndexProj`], a
/// [`WorkflowCache`] entry in front of the specification it owns.
///
/// Lookup cost is kept off the query hot path: the full query (target,
/// index and the whole focus set) is hashed **once** per lookup into a
/// `u64` bucket key; within a bucket only that cheap pre-computed key's
/// collisions are compared with full equality. Hit/miss counters are
/// lock-free atomics, so concurrent query threads never serialise on
/// bookkeeping.
struct PlanMemo {
    buckets: Mutex<Buckets>,
    hits: Counter,
    misses: Counter,
}

impl PlanMemo {
    fn new(hits: Counter, misses: Counter) -> Self {
        PlanMemo { buckets: Mutex::new(Buckets::default()), hits, misses }
    }

    /// The plan for `query`, from the memo or from `compile`; every
    /// compile that lands in the memo is recorded to `journal` as a
    /// `PlanCacheMiss` with the query's fingerprint.
    fn plan(
        &self,
        query: &LineageQuery,
        journal: &Journal,
        compile: impl FnOnce() -> Result<LineagePlan>,
    ) -> Result<Arc<LineagePlan>> {
        let key = PlanCache::fingerprint(query);
        if let Some(p) = self.buckets.lock().get(key, query) {
            self.hits.inc();
            return Ok(p);
        }
        // Compile outside the lock: planning is pure graph work and may be
        // slow; concurrent misses on the same query both compile, but only
        // one entry survives.
        let plan = Arc::new(compile()?);
        let mut buckets = self.buckets.lock();
        if let Some(p) = buckets.get(key, query) {
            // Another thread inserted while we compiled.
            self.hits.inc();
            return Ok(p);
        }
        if buckets.len >= PLAN_MEMO_CAP {
            *buckets = Buckets::default();
        }
        buckets.by_hash.entry(key).or_default().push((query.clone(), Arc::clone(&plan)));
        buckets.len += 1;
        self.misses.inc();
        journal.record(JournalEvent::PlanCacheMiss { fingerprint: key });
        Ok(plan)
    }

    fn len(&self) -> usize {
        self.buckets.lock().len
    }
}

/// A thread-safe cache of compiled plans for one workflow, holding at
/// most [`PLAN_MEMO_CAP`] of them.
pub struct PlanCache<'a> {
    index_proj: IndexProj<'a>,
    memo: PlanMemo,
    /// Optional event journal; every compile (cache miss) is recorded as
    /// a `PlanCacheMiss` with the query's fingerprint. Disabled by
    /// default (one branch per miss).
    journal: Journal,
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
            memo: PlanMemo::new(Counter::standalone(), Counter::standalone()),
            journal: Journal::disabled(),
        }
    }

    /// Attaches an event journal: cache misses (plan compiles) are
    /// recorded as `PlanCacheMiss` events keyed by query fingerprint.
    pub fn with_journal(mut self, journal: &Journal) -> Self {
        self.journal = journal.clone();
        self
    }

    /// Adopts the hit/miss counters into `registry` as `plan_cache.hits`
    /// / `plan_cache.misses` (shared storage, no extra lookup-path cost).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.adopt_counter("plan_cache.hits", &self.memo.hits);
        registry.adopt_counter("plan_cache.misses", &self.memo.misses);
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

    /// The plan for `query`, compiled at most once while it stays cached.
    pub fn plan(&self, query: &LineageQuery) -> Result<Arc<LineagePlan>> {
        self.memo.plan(query, &self.journal, || self.index_proj.plan(query))
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
        PlanCacheStats { hits: self.memo.hits.get(), misses: self.memo.misses.get() }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One registered workflow, resident: the specification parsed, reindexed
/// and validated once, Algorithm 1's depths computed once, and the plans
/// compiled against it so far.
pub(crate) struct ResidentWorkflow {
    /// The registration this entry was loaded from.
    spec: Arc<str>,
    df: Dataflow,
    depths: Arc<DepthInfo>,
    plans: PlanMemo,
}

impl ResidentWorkflow {
    pub(crate) fn dataflow(&self) -> &Dataflow {
        &self.df
    }

    /// The plan for `query` against this specification, compiled (under an
    /// `indexproj.plan` span of `obs`) only when the memo does not hold it.
    pub(crate) fn plan(&self, query: &LineageQuery, obs: &Obs) -> Result<Arc<LineagePlan>> {
        self.plans.plan(query, &obs.journal, || {
            IndexProj::with_depths(&self.df, Arc::clone(&self.depths)).plan_with(query, obs)
        })
    }
}

/// Point-in-time counters of a [`WorkflowCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkflowCacheStats {
    /// Specifications parsed, reindexed and validated.
    pub loads: u64,
    /// Resolutions answered by a resident specification.
    pub hits: u64,
    /// Plan lookups over all resident workflows.
    pub plans: PlanCacheStats,
}

/// The registered workflows a long-lived process has planned against,
/// kept resident so the paper's *t1* is paid once per workflow and query,
/// not once per request: a daemon, primary or replica, owns one for its
/// lifetime; a one-shot caller passes a fresh one and pays exactly what it
/// always did.
///
/// One entry per registered name. An entry is valid while the store still
/// hands out the registration it was loaded from — the check is
/// `Arc::ptr_eq` on [`TraceStore::workflow_json`], falling back to byte
/// equality, so a hit neither parses nor hashes the specification.
/// Re-registering identical bytes keeps the entry and its plans;
/// different bytes (or a different store) replace it at the next request,
/// on a primary and on a replica alike, since both learn of a
/// registration through the same record.
pub struct WorkflowCache {
    entries: Mutex<HashMap<ProcessorName, Arc<ResidentWorkflow>>>,
    loads: Counter,
    hits: Counter,
    plan_hits: Counter,
    plan_misses: Counter,
}

impl Default for WorkflowCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkflowCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowCache").field("stats", &self.stats()).finish()
    }
}

impl WorkflowCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorkflowCache {
            entries: Mutex::new(HashMap::new()),
            loads: Counter::standalone(),
            hits: Counter::standalone(),
            plan_hits: Counter::standalone(),
            plan_misses: Counter::standalone(),
        }
    }

    /// Adopts the counters into `registry` as `workflow_cache.loads` /
    /// `workflow_cache.hits` and `plan_cache.hits` / `plan_cache.misses`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.adopt_counter("workflow_cache.loads", &self.loads);
        registry.adopt_counter("workflow_cache.hits", &self.hits);
        registry.adopt_counter("plan_cache.hits", &self.plan_hits);
        registry.adopt_counter("plan_cache.misses", &self.plan_misses);
    }

    /// The counters.
    pub fn stats(&self) -> WorkflowCacheStats {
        WorkflowCacheStats {
            loads: self.loads.get(),
            hits: self.hits.get(),
            plans: PlanCacheStats { hits: self.plan_hits.get(), misses: self.plan_misses.get() },
        }
    }

    /// Plans currently held, over all resident workflows.
    pub fn cached_plans(&self) -> usize {
        self.entries.lock().values().map(|e| e.plans.len()).sum()
    }

    /// The workflow registered under `name` as `spec` (what
    /// [`TraceStore::workflow_json`] hands out now), resident. The lock is
    /// held across a load, so concurrent requests after a
    /// (re-)registration parse the specification once.
    pub(crate) fn resident(
        &self,
        name: ProcessorName,
        spec: Arc<str>,
    ) -> Result<Arc<ResidentWorkflow>> {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get(&name) {
            if Arc::ptr_eq(&e.spec, &spec) || e.spec == spec {
                self.hits.inc();
                return Ok(Arc::clone(e));
            }
        }
        let df = Dataflow::from_json(&spec)?;
        let depths = Arc::new(DepthInfo::compute(&df)?);
        self.loads.inc();
        let plans = PlanMemo::new(self.plan_hits.clone(), self.plan_misses.clone());
        let entry = Arc::new(ResidentWorkflow { spec, df, depths, plans });
        entries.insert(name, Arc::clone(&entry));
        Ok(entry)
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
        // Concurrent callers are the point of the test, not query fan-out.
        #[allow(clippy::disallowed_methods)]
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
