//! Exporting stored traces: the provenance *graph* view (§2.4) of a run.
//!
//! "It is convenient to view a trace as a directed acyclic graph … in
//! which the nodes are all the bindings that appear in the trace, and
//! there is an arc from `b_i` to `b_j` iff an xform event consumes `b_i`
//! and produces `b_j`, or an xfer event transfers `b_i` to `b_j`."
//!
//! Two renderings are provided: Graphviz DOT (for inspection of small
//! traces — exactly the pictures provenance papers draw) and a flat JSON
//! structure (nodes + edges) for downstream tooling.

use std::collections::HashMap;
use std::fmt::Write as _;

use serde::Serialize;

use prov_model::{Index, ProcessorName, RunId};

use crate::store::TraceStore;

/// One binding node of the provenance graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct GraphNode {
    /// Processor (scope-qualified).
    pub processor: ProcessorName,
    /// Port name.
    pub port: String,
    /// Element index.
    pub index: Index,
}

/// One dependency edge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphEdge {
    /// Source node position in the node list.
    pub from: usize,
    /// Target node position in the node list.
    pub to: usize,
    /// `"xform"` or `"xfer"`.
    pub kind: &'static str,
}

/// The provenance graph of one run, as flat node/edge lists.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ProvenanceGraph {
    /// Binding nodes.
    pub nodes: Vec<GraphNode>,
    /// Dependency edges (from → to follows the data direction).
    pub edges: Vec<GraphEdge>,
}

impl ProvenanceGraph {
    /// Materialises the provenance graph of `run` (full scan; intended
    /// for inspection and export, not querying).
    pub fn of_run(store: &TraceStore, run: RunId) -> ProvenanceGraph {
        let view = store.pin(run);
        let mut graph = ProvenanceGraph::default();
        let mut ids: HashMap<GraphNode, usize> = HashMap::new();
        let mut intern = |graph: &mut ProvenanceGraph, node: GraphNode| -> usize {
            if let Some(&i) = ids.get(&node) {
                return i;
            }
            let i = graph.nodes.len();
            graph.nodes.push(node.clone());
            ids.insert(node, i);
            i
        };

        for rec in view.xforms_of_run() {
            let inputs: Vec<usize> = rec
                .inputs()
                .map(|p| {
                    intern(
                        &mut graph,
                        GraphNode {
                            processor: rec.processor.clone(),
                            port: p.port.to_string(),
                            index: p.index.clone(),
                        },
                    )
                })
                .collect();
            for out in rec.outputs() {
                let to = intern(
                    &mut graph,
                    GraphNode {
                        processor: rec.processor.clone(),
                        port: out.port.to_string(),
                        index: out.index.clone(),
                    },
                );
                for &from in &inputs {
                    graph.edges.push(GraphEdge { from, to, kind: "xform" });
                }
            }
        }
        for rec in view.xfers_of_run() {
            let from = intern(
                &mut graph,
                GraphNode {
                    processor: rec.src_processor.clone(),
                    port: rec.src_port.to_string(),
                    index: rec.src_index.clone(),
                },
            );
            let to = intern(
                &mut graph,
                GraphNode {
                    processor: rec.dst_processor.clone(),
                    port: rec.dst_port.to_string(),
                    index: rec.dst_index.clone(),
                },
            );
            graph.edges.push(GraphEdge { from, to, kind: "xfer" });
        }
        graph
    }

    /// Renders the graph as Graphviz DOT, clustering nodes by processor.
    pub fn to_dot(&self, run: RunId) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{run}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"Helvetica\", fontsize=10];");

        // Cluster by processor for readability.
        let mut by_proc: HashMap<&ProcessorName, Vec<usize>> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            by_proc.entry(&n.processor).or_default().push(i);
        }
        let mut procs: Vec<&&ProcessorName> = by_proc.keys().collect();
        procs.sort();
        for (ci, proc) in procs.iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{ci} {{");
            let _ = writeln!(out, "    label=\"{proc}\";");
            for &i in &by_proc[**proc] {
                let n = &self.nodes[i];
                let _ = writeln!(out, "    n{i} [label=\"{}{}\"];", n.port, n.index);
            }
            let _ = writeln!(out, "  }}");
        }
        for e in &self.edges {
            let style = if e.kind == "xfer" { " [style=dashed]" } else { "" };
            let _ = writeln!(out, "  n{} -> n{}{};", e.from, e.to, style);
        }
        out.push_str("}\n");
        out
    }

    /// Serialises the graph to JSON.
    pub fn to_json(&self) -> crate::Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| crate::StoreError::Serialize(e.to_string()))
    }

    /// `(nodes, edges)` counts.
    pub fn size(&self) -> (usize, usize) {
        (self.nodes.len(), self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_engine::{PortBinding, TraceSink, XferEvent, XformEvent};
    use prov_model::{PortRef, Value};

    fn sample_store() -> (TraceStore, RunId) {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        store.record_xfer(
            run,
            XferEvent {
                src: PortRef::new("wf", "in"),
                src_index: Index::single(0),
                dst: PortRef::new("P", "x"),
                dst_index: Index::single(0),
                value: Value::str("a"),
            },
        );
        store.record_xform(
            run,
            XformEvent {
                processor: ProcessorName::from("P"),
                invocation: 0,
                inputs: vec![PortBinding::new("x", Index::single(0), Value::str("a"))],
                outputs: vec![PortBinding::new("y", Index::single(0), Value::str("A"))],
            },
        );
        (store, run)
    }

    #[test]
    fn graph_has_one_node_per_distinct_binding() {
        let (store, run) = sample_store();
        let g = ProvenanceGraph::of_run(&store, run);
        // wf:in[0], P:x[0], P:y[0] — the xfer dst and xform input COINCIDE.
        assert_eq!(g.size(), (3, 2));
        let kinds: Vec<&str> = g.edges.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"xfer"));
        assert!(kinds.contains(&"xform"));
    }

    #[test]
    fn edges_follow_data_direction() {
        let (store, run) = sample_store();
        let g = ProvenanceGraph::of_run(&store, run);
        for e in &g.edges {
            let from = &g.nodes[e.from];
            let to = &g.nodes[e.to];
            match e.kind {
                "xfer" => {
                    assert_eq!(from.processor, ProcessorName::from("wf"));
                    assert_eq!(to.processor, ProcessorName::from("P"));
                }
                "xform" => {
                    assert_eq!(from.port, "x");
                    assert_eq!(to.port, "y");
                }
                other => panic!("unexpected kind {other}"),
            }
        }
    }

    #[test]
    fn dot_and_json_render() {
        let (store, run) = sample_store();
        let g = ProvenanceGraph::of_run(&store, run);
        let dot = g.to_dot(run);
        assert!(dot.contains("digraph \"run:0\""));
        assert!(dot.contains("cluster_"));
        assert!(dot.contains("style=dashed")); // the xfer edge
        let json = g.to_json().unwrap();
        assert!(json.contains("\"kind\": \"xform\""));
        // JSON parses back as generic value.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["nodes"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn empty_run_yields_empty_graph() {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        let g = ProvenanceGraph::of_run(&store, run);
        assert_eq!(g.size(), (0, 0));
    }
}
