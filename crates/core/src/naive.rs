//! **NI** — the naïve baseline (§2.4): Def. 1 evaluated by recursive
//! traversal of the provenance graph.
//!
//! Every step retrieves events from the trace store:
//!
//! * *xform* case — invert a processor extensionally by finding the xform
//!   events whose output binding matches the current node; if the
//!   processor is interesting, collect its input bindings (`In_P`); recurse
//!   on every input binding;
//! * *xfer* case — follow arcs backwards (`lin(dst) = lin(src)`).
//!
//! The cost is proportional to the number of provenance-graph nodes on all
//! paths upstream of the query target — including regions that contain no
//! interesting processors at all, which is exactly the waste INDEXPROJ
//! avoids.

use std::collections::HashSet;

use prov_model::{Binding, RunId};
use prov_obs::{Obs, QueryCtx};
use prov_store::{IndexId, Node, PortDirection, ReadView, TraceStore};

use crate::lifecycle::Lifecycle;
use crate::{LineageAnswer, LineageQuery, Result};

/// The naïve lineage query processor.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveLineage;

impl NaiveLineage {
    /// A query processor (stateless; the struct exists for API symmetry
    /// with [`crate::IndexProj`]).
    pub fn new() -> Self {
        NaiveLineage
    }

    /// Answers `query` over one run.
    pub fn run(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &LineageQuery,
    ) -> Result<LineageAnswer> {
        self.run_pinned(&store.pin(run), query, &Obs::disabled(), &QueryCtx::detached())
    }

    /// Answers `query` over several runs. NI shares nothing between runs:
    /// each run costs one full provenance-graph traversal (the behaviour
    /// Fig. 4 contrasts with INDEXPROJ's shared phase s1).
    pub fn run_multi(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
    ) -> Result<Vec<LineageAnswer>> {
        self.run_multi_ctx(store, runs, query, &Obs::disabled(), &QueryCtx::detached())
    }

    /// Answers `query` against an already-pinned read snapshot
    /// ([`prov_store::TraceStore::pin`]), observed by `obs` under `ctx`.
    /// The whole traversal probes the immutable view without acquiring
    /// any lock, and sees the run's trace exactly as of the pin even while
    /// recording continues.
    ///
    /// One `ni.traverse` span covers the whole traversal, and every popped
    /// node records an `ni.hop` span charging the paper's `t2` account —
    /// the trace accesses that invert one provenance-graph node — tagged
    /// with its distance from the query target (`depth`). `t1` (pure
    /// traversal bookkeeping) is the traverse span minus the sum of its
    /// hops. The traversal's trace accesses accumulate into query-local
    /// counters (journalled as one `QueryFinished` with exact totals —
    /// per-hop events would swamp the ring on deep graphs), and the
    /// deadline is enforced between hops.
    pub fn run_pinned(
        &self,
        view: &ReadView,
        query: &LineageQuery,
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<LineageAnswer> {
        let run = view.run();
        let life = Lifecycle::start(obs, ctx);
        // One guard spans the whole traversal: exactly one flush into the
        // shared counters, even if a hop errors out (or the deadline
        // fires) partway through.
        let mut probe = view.probe_guard();
        let mut t2_ns = 0u64;
        let mut traverse = obs.span("ni.traverse", "query");
        let target = &query.target;
        let focus = view.processor_set(query.focus.iter());
        let mut visited: HashSet<Node> = HashSet::new();
        let mut stack: Vec<(Node, u64)> =
            vec![(view.node(&target.processor, &target.port, &query.index), 0)];
        let mut bindings: Vec<Binding> = Vec::new();
        let mut trace_queries = 0usize;
        let mut max_depth = 0u64;
        // Probe buffers, reused by every hop.
        let (mut producers, mut incoming, mut outgoing) = (Vec::new(), Vec::new(), Vec::new());

        while let Some((node, depth)) = stack.pop() {
            if !visited.insert(node.clone()) {
                continue;
            }
            life.check_deadline()?;
            let hop_start = life.journals().then(std::time::Instant::now);
            max_depth = max_depth.max(depth);
            let mut hop = obs.span("ni.hop", "t2");
            hop.arg("depth", depth);
            // Only the target can name a processor the store never saw,
            // so only its focus is decided by name.
            let focused = if depth == 0 {
                query.focus.contains(&target.processor)
            } else {
                focus.contains(&node)
            };

            // xform case: the node as an invocation output.
            trace_queries += 1;
            view.rows(IndexId::XformOut, &node, &mut probe, &mut producers);
            for &pos in &producers {
                for (input, value) in view.xform_ports(pos, PortDirection::In) {
                    if focused {
                        bindings.push(view.binding(&input, value)?);
                    }
                    stack.push((input, depth + 1));
                }
            }

            // xfer case: the node as an arc destination.
            trace_queries += 1;
            view.rows(IndexId::XferDst, &node, &mut probe, &mut incoming);
            for &pos in &incoming {
                stack.push((view.xfer_src(pos).0, depth + 1));
            }

            // Workflow-scope input ports exist in the trace only as xfer
            // *sources*: top-level inputs are true sources (no producers,
            // no incoming transfers), and a nested scope's inputs forward
            // into its own inner processors (names under `scope/`).
            // Collect their bindings when the scope is interesting.
            if focused && producers.is_empty() {
                let is_source = incoming.is_empty();
                let is_scope_input = if is_source {
                    false // already conclusive
                } else {
                    trace_queries += 1;
                    let processor = view.processor_name(&node);
                    let scope_prefix = format!("{processor}/");
                    view.rows(IndexId::XferSrc, &node, &mut probe, &mut outgoing);
                    outgoing.iter().any(|&pos| {
                        let dst = view.processor_name(&view.xfer_dst(pos).0);
                        dst.as_str().starts_with(&scope_prefix) || dst == processor
                    })
                };
                if is_source || is_scope_input {
                    trace_queries += 1;
                    bindings.extend(view.bindings_at(IndexId::XferSrc, &node, &mut probe)?);
                }
            }
            hop.stop();
            if let Some(t) = hop_start {
                t2_ns += t.elapsed().as_nanos() as u64;
            }
        }

        traverse.arg("nodes", visited.len() as u64);
        traverse.arg("max_depth", max_depth);
        traverse.stop();
        life.finish(run, trace_queries, bindings.len(), probe.so_far(), Some(t2_ns));
        Ok(LineageAnswer::new(run, bindings, trace_queries, visited.len()))
    }

    /// [`NaiveLineage::run_multi`] observed by `obs` under `ctx`: the runs
    /// are traversed in order, each pinned once and traversed lock-free;
    /// the first failing run's error is the sweep's. Every run's traversal
    /// journals its own `QueryStarted`/`QueryFinished` pair under the
    /// shared trace id.
    pub fn run_multi_ctx(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<Vec<LineageAnswer>> {
        runs.iter().map(|&r| self.run_pinned(&store.pin(r), query, obs, ctx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_engine::{BehaviorRegistry, Engine, TraceSink};
    use prov_model::{Index, PortRef, ProcessorName, Value};

    /// in:list → A → B → out, identity stages.
    fn chain_setup() -> (TraceStore, RunId) {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        for name in ["A", "B"] {
            b.processor_with_behavior(name, "identity")
                .in_port("x", PortType::atom(BaseType::String))
                .out_port("y", PortType::atom(BaseType::String));
        }
        b.arc_from_input("in", "A", "x").unwrap();
        b.arc("A", "y", "B", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("B", "y", "out").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let run = Engine::new(BehaviorRegistry::new().with_builtins())
            .execute(&df, vec![("in".into(), Value::from(vec!["u", "v", "w"]))], &store)
            .unwrap()
            .run_id;
        (store, run)
    }

    #[test]
    fn fine_grained_lineage_reaches_the_right_input_element() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert_eq!(ans.bindings.len(), 1);
        assert_eq!(ans.bindings[0].port, PortRef::new("wf", "in"));
        assert_eq!(ans.bindings[0].index, Index::single(1));
        assert_eq!(ans.bindings[0].value, Value::str("v"));
    }

    #[test]
    fn focusing_an_intermediate_processor_collects_its_inputs() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(2),
            [ProcessorName::from("B")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert_eq!(ans.bindings.len(), 1);
        assert_eq!(ans.bindings[0].port, PortRef::new("B", "x"));
        assert_eq!(ans.bindings[0].value, Value::str("w"));
    }

    #[test]
    fn coarse_query_collects_all_elements() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::empty(),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        // All three input elements are in the lineage of the whole output.
        assert_eq!(ans.bindings.len(), 3);
    }

    #[test]
    fn empty_focus_returns_no_bindings_but_still_traverses() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(PortRef::new("wf", "out"), Index::single(0), []);
        let ans = NaiveLineage::new().run(&store, run, &q).unwrap();
        assert!(ans.bindings.is_empty());
        assert!(ans.nodes_visited > 1);
        assert!(ans.trace_queries > 1);
    }

    #[test]
    fn multi_run_traverses_each_run_independently() {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("A", "identity")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "A", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("A", "y", "out").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let engine = Engine::new(BehaviorRegistry::new().with_builtins());
        let mut runs = Vec::new();
        for tag in ["r0", "r1"] {
            runs.push(
                engine
                    .execute(&df, vec![("in".into(), Value::from(vec![tag]))], &store)
                    .unwrap()
                    .run_id,
            );
        }
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        let answers = NaiveLineage::new().run_multi(&store, &runs, &q).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].bindings[0].value, Value::str("r0"));
        assert_eq!(answers[1].bindings[0].value, Value::str("r1"));
    }

    #[test]
    fn profiled_run_records_traverse_and_hop_spans() {
        let (store, run) = chain_setup();
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let obs = prov_obs::Obs::enabled();
        let plain = NaiveLineage::new().run(&store, run, &q).unwrap();
        let profiled =
            NaiveLineage::new().run_pinned(&store.pin(run), &q, &obs, &QueryCtx::new("q")).unwrap();
        assert_eq!(plain.bindings, profiled.bindings);
        let spans = obs.profiler.spans();
        let traverses = spans.iter().filter(|s| s.name == "ni.traverse").count();
        let hops: Vec<_> = spans.iter().filter(|s| s.name == "ni.hop").collect();
        assert_eq!(traverses, 1);
        // One hop per visited provenance-graph node.
        assert_eq!(hops.len(), profiled.nodes_visited);
        // Depth args grow from the target (0) along the upstream path.
        let depths: Vec<u64> = hops
            .iter()
            .filter_map(|s| s.args.iter().find(|(k, _)| *k == "depth").map(|(_, v)| *v))
            .collect();
        assert_eq!(depths.len(), hops.len());
        assert!(depths.contains(&0));
        assert!(depths.iter().max().unwrap() >= &2, "chain is at least 3 nodes deep");
    }

    #[test]
    fn querying_a_run_with_no_trace_returns_empty() {
        let (store, _) = chain_setup();
        let ghost = store.begin_run(&"wf".into());
        let q = LineageQuery::focused(
            PortRef::new("wf", "out"),
            Index::single(0),
            [ProcessorName::from("wf")],
        );
        let ans = NaiveLineage::new().run(&store, ghost, &q).unwrap();
        assert!(ans.bindings.is_empty());
    }
}
