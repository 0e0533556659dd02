//! Differencing lineage across runs (§3.4): "this generalised form of
//! query is useful for comparing data products across multiple runs of the
//! same workflow".
//!
//! Given two runs of one workflow and a target binding, [`diff_lineage`]
//! computes both lineage answers with a **shared** plan (one spec-graph
//! traversal for both runs — exactly the multi-run economics the paper
//! describes) and splits the bindings into common / only-A / only-B.
//! [`diff_traces`] compares the runs at the trace level: per-processor
//! invocation counts, a cheap first signal of *where* two runs diverged.
//!
//! Full dependency-graph differencing (Bao et al., cited by the paper) is
//! out of scope here, as it is there.

use std::collections::BTreeMap;

use prov_dataflow::Dataflow;
use prov_model::{Binding, ProcessorName, RunId};
use prov_store::TraceStore;

use crate::{IndexProj, LineageQuery, Result};

/// The outcome of comparing one lineage question across two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageDiff {
    /// The compared runs `(a, b)`.
    pub runs: (RunId, RunId),
    /// Bindings present in both answers (port, index and value all equal).
    pub common: Vec<Binding>,
    /// Bindings only in run A's answer.
    pub only_a: Vec<Binding>,
    /// Bindings only in run B's answer.
    pub only_b: Vec<Binding>,
}

impl LineageDiff {
    /// Whether the two answers are identical.
    pub fn is_same(&self) -> bool {
        self.only_a.is_empty() && self.only_b.is_empty()
    }
}

impl std::fmt::Display for LineageDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} vs {}: {} common, {} only in A, {} only in B",
            self.runs.0,
            self.runs.1,
            self.common.len(),
            self.only_a.len(),
            self.only_b.len()
        )?;
        for b in &self.only_a {
            writeln!(f, "  - {b}")?;
        }
        for b in &self.only_b {
            writeln!(f, "  + {b}")?;
        }
        Ok(())
    }
}

/// Answers `query` on both runs with one shared plan and diffs the
/// binding sets.
pub fn diff_lineage(
    df: &Dataflow,
    store: &TraceStore,
    run_a: RunId,
    run_b: RunId,
    query: &LineageQuery,
) -> Result<LineageDiff> {
    let plan = IndexProj::new(df).plan(query)?;
    let a = plan.execute(store, run_a)?;
    let b = plan.execute(store, run_b)?;

    let mut common = Vec::new();
    let mut only_a = Vec::new();
    for binding in &a.bindings {
        if b.bindings.contains(binding) {
            common.push(binding.clone());
        } else {
            only_a.push(binding.clone());
        }
    }
    let only_b: Vec<Binding> =
        b.bindings.iter().filter(|x| !a.bindings.contains(x)).cloned().collect();
    Ok(LineageDiff { runs: (run_a, run_b), common, only_a, only_b })
}

/// Per-processor invocation counts of two runs, for a cheap structural
/// comparison of traces ("did the second run iterate differently?").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// The compared runs `(a, b)`.
    pub runs: (RunId, RunId),
    /// Per processor: invocation counts in run A and run B. Processors
    /// absent from a run count 0.
    pub invocations: BTreeMap<ProcessorName, (u64, u64)>,
}

impl TraceDiff {
    /// Processors whose invocation counts differ.
    pub fn divergent(&self) -> Vec<(&ProcessorName, u64, u64)> {
        self.invocations
            .iter()
            .filter(|(_, (a, b))| a != b)
            .map(|(p, (a, b))| (p, *a, *b))
            .collect()
    }

    /// Whether the two traces have identical iteration structure.
    pub fn is_same_shape(&self) -> bool {
        self.divergent().is_empty()
    }
}

/// Compares the iteration structure of two runs.
pub fn diff_traces(store: &TraceStore, run_a: RunId, run_b: RunId) -> TraceDiff {
    let mut invocations: BTreeMap<ProcessorName, (u64, u64)> = BTreeMap::new();
    for rec in store.pin(run_a).xforms_of_run() {
        invocations.entry(rec.processor.clone()).or_default().0 += 1;
    }
    for rec in store.pin(run_b).xforms_of_run() {
        invocations.entry(rec.processor.clone()).or_default().1 += 1;
    }
    TraceDiff { runs: (run_a, run_b), invocations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{Index, PortRef, Value};
    use prov_workgen::testbed;

    /// The canonical testbed query, built locally: `testbed::focused_query`
    /// returns the *dependency* crate's `LineageQuery`, a distinct type in
    /// this crate's own test build.
    fn canonical_query(p: &[u32]) -> LineageQuery {
        LineageQuery::focused(
            PortRef::new("2TO1_FINAL", "Y"),
            Index::from_slice(p),
            [ProcessorName::from("LISTGEN_1")],
        )
    }

    #[test]
    fn identical_runs_diff_clean() {
        let df = testbed::generate(3);
        let store = TraceStore::in_memory();
        let a = testbed::run(&df, 4, &store).run_id;
        let b = testbed::run(&df, 4, &store).run_id;
        let q = canonical_query(&[1, 2]);
        let diff = diff_lineage(&df, &store, a, b, &q).unwrap();
        assert!(diff.is_same(), "{diff}");
        assert_eq!(diff.common.len(), 1);
        assert!(diff_traces(&store, a, b).is_same_shape());
    }

    #[test]
    fn different_inputs_show_up_in_the_diff() {
        let df = testbed::generate(3);
        let store = TraceStore::in_memory();
        let a = testbed::run(&df, 4, &store).run_id;
        let b = testbed::run(&df, 6, &store).run_id;
        let q = canonical_query(&[1, 2]);
        let diff = diff_lineage(&df, &store, a, b, &q).unwrap();
        assert!(!diff.is_same());
        // The ListSize inputs differ: 4 vs 6.
        assert_eq!(diff.only_a.len(), 1);
        assert_eq!(diff.only_a[0].value, Value::int(4));
        assert_eq!(diff.only_b[0].value, Value::int(6));
        assert!(diff.to_string().contains("- ⟨LISTGEN_1:size[], 4⟩"));

        // And the iteration structure diverges everywhere downstream.
        let tdiff = diff_traces(&store, a, b);
        assert!(!tdiff.is_same_shape());
        let chain_div = tdiff
            .divergent()
            .iter()
            .find(|(p, _, _)| p.as_str() == "CHAIN_A_1")
            .map(|(_, x, y)| (*x, *y));
        assert_eq!(chain_div, Some((4, 6)));
        // LISTGEN_1 itself ran once in both.
        assert_eq!(tdiff.invocations[&ProcessorName::from("LISTGEN_1")], (1, 1));
    }

    #[test]
    fn diff_against_empty_run_lists_everything_as_only_a() {
        let df = testbed::generate(2);
        let store = TraceStore::in_memory();
        let a = testbed::run(&df, 3, &store).run_id;
        let ghost = {
            use prov_engine::TraceSink;
            store.begin_run(&"testbed".into())
        };
        let q = LineageQuery::focused(
            PortRef::new("2TO1_FINAL", "Y"),
            Index::from_slice(&[0, 0]),
            [ProcessorName::from("LISTGEN_1")],
        );
        let diff = diff_lineage(&df, &store, a, ghost, &q).unwrap();
        assert_eq!(diff.only_a.len(), 1);
        assert!(diff.only_b.is_empty());
        assert!(diff.common.is_empty());
    }
}
