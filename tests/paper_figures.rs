//! The paper's evaluation (§4) as exact work counts, at the paper's own
//! grids: Table 1 and Figs. 4, 6–10.
//!
//! The figures make claims about shape: what grows with the chain length
//! `l`, the list size `d`, the number of runs and the focus set `|𝒫|`, and
//! what stays flat. The store's probe counters (`index_lookups`,
//! `records_read`, `rows_scanned`) and the executors' own
//! (`trace_queries`, `nodes_visited`) are machine-independent and fully
//! determined by the trace, so every law is asserted to the record. A
//! change to the index layout, to how NI and impact walk the provenance
//! graph or to how an INDEXPROJ step reads its bindings must leave every
//! count here unchanged.
//!
//! Each testbed `(l, d)` cell is recorded once, into one store that every
//! figure using the cell reads. A figure holds the cell's lock while it
//! probes, so the store's counters see only that figure's work, whatever
//! the test order or thread count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use prov_workgen::{bio, testbed};
use taverna_prov::lineage::{parse_query, ParsedQuery, Result};
use taverna_prov::prelude::*;
use taverna_prov::store::StatsSnapshot;

/// One testbed cell: the workflow for `l`, and the runs of list size `d`
/// recorded so far into its store.
struct Cell {
    df: Dataflow,
    d: usize,
    store: TraceStore,
    runs: Vec<RunId>,
}

impl Cell {
    /// The first `n` runs, recording more until the store holds `n`.
    fn runs(&mut self, n: usize) -> Vec<RunId> {
        while self.runs.len() < n {
            self.runs.push(testbed::run(&self.df, self.d, &self.store).run_id);
        }
        self.runs[..n].to_vec()
    }
}

/// Runs `f` on the `(l, d)` cell, holding its lock; the cell's first run is
/// recorded on first use. Only Fig. 6 records more. A figure that panics
/// leaves only whole runs in `runs`, so the next one may still read the
/// cell.
fn with_cell<R>(l: usize, d: usize, f: impl FnOnce(&mut Cell) -> R) -> R {
    type Slot = Arc<Mutex<Option<Cell>>>;
    static CELLS: Mutex<BTreeMap<(usize, usize), Slot>> = Mutex::new(BTreeMap::new());
    let slot =
        Arc::clone(CELLS.lock().unwrap_or_else(PoisonError::into_inner).entry((l, d)).or_default());
    let mut cell = slot.lock().unwrap_or_else(PoisonError::into_inner);
    f(cell.get_or_insert_with(|| {
        let mut cell =
            Cell { df: testbed::generate(l), d, store: TraceStore::in_memory(), runs: Vec::new() };
        cell.runs(1);
        cell
    }))
}

/// `f`'s result and the store work it did.
fn counted<T>(store: &TraceStore, f: impl FnOnce() -> Result<T>) -> (T, StatsSnapshot) {
    let before = store.stats().snapshot();
    let out = f().unwrap();
    (out, store.stats().snapshot().since(before))
}

/// `(trace_queries, nodes_visited, index_lookups, records_read,
/// rows_scanned, bindings)` of one execution over one run.
type Work = (usize, usize, u64, u64, u64, usize);

fn measure(store: &TraceStore, f: impl FnOnce() -> Result<LineageAnswer>) -> (LineageAnswer, Work) {
    let (a, d) = counted(store, f);
    let (queries, nodes, bindings) = (a.trace_queries, a.nodes_visited, a.bindings.len());
    (a, (queries, nodes, d.index_lookups, d.records_read, d.rows_scanned, bindings))
}

/// The answer's bindings as `processor:port[index]=value`.
fn rendered(a: &LineageAnswer) -> Vec<String> {
    a.bindings.iter().map(|b| format!("{}{}={}", b.port, b.index, b.value)).collect()
}

/// The canonical focused query at the middle of a `d`-element list.
fn middle_query(d: usize) -> LineageQuery {
    let p = d as u32 / 2;
    testbed::focused_query(&[p, p])
}

// ---------------------------------------------------------------- Table 1

/// Table 1 as the paper prints it: records for one run, one row per `d`
/// in [`testbed::PAPER_D`], one column per `l` in [`testbed::PAPER_L`].
const PAPER_TABLE1: [[u64; 6]; 4] = [
    [626, 1346, 2226, 3226, 4226, 6226],
    [2306, 4106, 6306, 8806, 11306, 16306],
    [7106, 11000, 15106, 20106, 25106, 35106],
    [14406, 15479, 26406, 33906, 41406, 49561],
];

/// One xform row per elementary invocation plus one xfer row per
/// transferred element.
fn table1_law(l: usize, d: usize) -> u64 {
    (4 * l * d + 2 * d * d + 2 * d + 2) as u64
}

#[test]
fn table1_trace_sizes_follow_the_closed_form() {
    let mut irregular = Vec::new();
    for (row, &d) in testbed::PAPER_D.iter().enumerate() {
        for (col, &l) in testbed::PAPER_L.iter().enumerate() {
            let records = with_cell(l, d, |c| c.store.trace_record_count(c.runs[0]));
            assert_eq!(records, table1_law(l, d), "l={l}, d={d}");
            let paper = PAPER_TABLE1[row][col];
            if paper != records + 4 {
                irregular.push(paper);
            }
        }
    }
    // 21 of the paper's 24 cells are this law plus 4 rows a run; the other
    // three break the paper's own growth law.
    assert_eq!(irregular, [11_000, 15_479, 49_561]);
}

// ----------------------------------------------------------------- Fig. 6

/// Fig. 6 at `l = 75, d = 50`: NI's cost on the first run does not move as
/// ten runs accumulate, because every access path is indexed. The same
/// store then pins NI, impact and INDEXPROJ at paper scale, per run and
/// over a sweep of eight runs.
#[test]
fn fig6_ni_work_is_flat_in_accumulated_runs_and_pinned_at_paper_scale() {
    with_cell(75, 50, |c| {
        let query = middle_query(50);
        for n in 1..=10 {
            let first = c.runs(n)[0];
            assert_eq!(c.store.total_record_count(), n as u64 * table1_law(75, 50));
            let (_, work) = measure(&c.store, || NaiveLineage::new().run(&c.store, first, &query));
            assert_eq!((work.2, work.3), (1_836, 609), "NI with {n} runs stored");
        }
        let runs = c.runs(8);
        pinned_at_paper_scale(&c.df, &c.store, &runs);
    });
}

fn pinned_at_paper_scale(df: &Dataflow, store: &TraceStore, runs: &[RunId]) {
    let mut all = vec!["testbed".to_string(), "LISTGEN_1".into(), "2TO1_FINAL".into()];
    for chain in ["A", "B"] {
        all.extend((1..=75).map(|i| format!("CHAIN_{chain}_{i}")));
    }
    // The ledger's partial focus: both ends plus the first five stages of
    // each chain.
    let mut partial = vec!["LISTGEN_1".to_string(), "2TO1_FINAL".into()];
    for chain in ["A", "B"] {
        partial.extend((1..=5).map(|i| format!("CHAIN_{chain}_{i}")));
    }
    let names = ["focused", "partial", "unfocused"];
    let queries = [
        "{LISTGEN_1}".to_string(),
        format!("{{{}}}", partial.join(",")),
        format!("{{{}}}", all.join(",")),
    ]
    .map(|focus| match parse_query(&format!("lin(<2TO1_FINAL:Y[7,31]>,{focus})")).unwrap() {
        ParsedQuery::Lineage(q) => q,
        other => panic!("{other:?}"),
    });
    let impact = match parse_query("impact(<LISTGEN_1:list[7]>,{2TO1_FINAL})").unwrap() {
        ParsedQuery::Impact(q) => q,
        other => panic!("{other:?}"),
    };
    let ip = IndexProj::new(df);
    let plans = queries.each_ref().map(|q| ip.plan(q).unwrap());
    // Per query: NI's work, then INDEXPROJ's.
    let want = [
        ((615, 307, 1_842, 610, 0, 1), (1, 154, 2, 2, 0, 1)),
        ((627, 307, 1_878, 610, 0, 13), (13, 154, 38, 222, 0, 13)),
        ((768, 307, 2_300, 612, 0, 154), (154, 154, 460, 504, 0, 154)),
    ];

    // Every run has the same shape, so each must report the same counts.
    let ni = NaiveLineage::new();
    for &run in runs {
        for (i, name) in names.iter().enumerate() {
            let (by_walk, work) = measure(store, || ni.run(store, run, &queries[i]));
            assert_eq!(work, want[i].0, "NI {name}, {run}");
            let (by_plan, work) = measure(store, || plans[i].execute(store, run));
            assert_eq!(work, want[i].1, "INDEXPROJ {name}, {run}");
            assert!(by_plan.same_bindings(&by_walk), "INDEXPROJ ≢ NI {name}, {run}");
        }
        let (_, work) = measure(store, || NaiveImpact::new().run(store, run, &impact));
        assert_eq!(work, (1_002, 501, 3_402, 1_002, 0, 101), "impact, {run}");
        // The workflow's own input exists in the trace only as an xfer
        // source: NI collects it through its scope-input case.
        let lineage = rendered(&ni.run(store, run, &queries[2]).unwrap());
        let scope: Vec<&String> = lineage.iter().filter(|b| b.starts_with("testbed:")).collect();
        assert_eq!(scope, ["testbed:ListSize[]=50"], "NI scope input, {run}");
    }

    // NI shares nothing between runs: a sweep over all eight costs eight
    // traversals. INDEXPROJ shares its plan, so a sweep costs eight
    // executions of its steps and nothing more.
    let sweep = |f: &dyn Fn() -> Result<Vec<LineageAnswer>>| {
        let (answers, d) = counted(store, f);
        let bindings: usize = answers.iter().map(|a| a.bindings.len()).sum();
        (answers.len(), d.index_lookups, d.records_read, d.rows_scanned, bindings)
    };
    let work = sweep(&|| ni.run_multi(store, runs, &queries[0]));
    assert_eq!(work, (8, 14_736, 4_880, 0, 8), "NI run_multi");
    let work = sweep(&|| plans[2].execute_multi(store, runs));
    assert_eq!(work, (8, 3_680, 4_032, 0, 1_232), "INDEXPROJ execute_multi");
}

// --------------------------------------------------------- Figs. 7 and 9

/// Fig. 7 (NI against `d`) and Fig. 9 (strategies against `l`, at `d = 10`
/// and `d = 150`): NI walks the whole path, `24·l + 36` lookups reading
/// `8·l + 9` records, whatever `d` is; INDEXPROJ's one focused step reads 2
/// records at every `l` and `d`.
#[test]
fn fig7_fig9_ni_reads_grow_with_l_only_and_indexproj_reads_are_flat() {
    for d in [10, 25, 50, 75, 150] {
        for l in testbed::PAPER_L {
            let query = middle_query(d);
            let (ni, ip) = with_cell(l, d, |c| {
                let run = c.runs[0];
                let (by_walk, ni) =
                    measure(&c.store, || NaiveLineage::new().run(&c.store, run, &query));
                let (by_plan, ip) =
                    measure(&c.store, || IndexProj::new(&c.df).run(&c.store, run, &query));
                assert!(by_plan.same_bindings(&by_walk), "INDEXPROJ ≢ NI, l={l}, d={d}");
                ((ni.2, ni.3), ip.3)
            });
            let l = l as u64;
            assert_eq!(ni, (24 * l + 36, 8 * l + 9), "NI work, l={l}, d={d}");
            assert_eq!(ip, 2, "INDEXPROJ records read, l={l}, d={d}");
        }
    }
}

// ----------------------------------------------------------------- Fig. 8

/// Fig. 8: planning (*t1*) visits each specification node once plus the
/// query's target, for `l` up to 200, and never looks at the trace, so the
/// plan for any `d` has the same shape.
#[test]
fn fig8_planning_work_is_linear_in_l_and_independent_of_d() {
    for l in [10, 28, 50, 75, 100, 150, 200] {
        let df = testbed::generate(l);
        assert_eq!(df.node_count() + 1, 2 * l + 3);
        let ip = IndexProj::new(&df);
        let shape = |d: usize| {
            let plan = ip.plan(&middle_query(d)).unwrap();
            let steps: Vec<_> =
                plan.steps.into_iter().map(|s| (s.kind, s.processor, s.port)).collect();
            (plan.nodes_visited, steps)
        };
        let (nodes, steps) = shape(testbed::PAPER_D[0]);
        assert_eq!(nodes, 2 * l + 3, "nodes visited, l={l}");
        for d in testbed::PAPER_D {
            assert_eq!(shape(d), (nodes, steps.clone()), "plan at l={l}, d={d}");
        }
    }
}

// ---------------------------------------------------------------- Fig. 10

/// Fig. 10 at `l = 75, d = 25`: a partially unfocused INDEXPROJ query
/// costs `3·|𝒫| + 2` lookups as the focus set grows to half the graph.
#[test]
fn fig10_partially_unfocused_lookups_are_linear_in_focus_size() {
    let sizes = with_cell(75, 25, |c| {
        let run = c.runs[0];
        let ip = IndexProj::new(&c.df);
        [0, 2, 5, 9, 14, 18].map(|k| {
            let query = testbed::partially_unfocused_query(&c.df, &[12, 12], k);
            let (_, work) = measure(&c.store, || ip.run(&c.store, run, &query));
            let size = query.focus.len();
            assert_eq!(work.2, 3 * size as u64 + 2, "index lookups at |𝒫| = {size}");
            size
        })
    });
    assert_eq!(sizes, [2, 6, 12, 20, 30, 38]);
}

// ----------------------------------------------------------------- Fig. 4

/// Fig. 4: over ten runs of GK and PD, one shared plan costs the runs'
/// lookups and nothing more, and the per-run costs keep the paper's order.
#[test]
fn fig4_one_plan_serves_every_run_at_its_per_run_cost() {
    let runs = 10;
    let gk = bio::genes2kegg_workflow();
    let db = Arc::new(bio::KeggDb::small(7));
    let gk_store = TraceStore::in_memory();
    let gk_runs: Vec<RunId> = (0..runs)
        .map(|i| {
            let genes = bio::sample_gene_lists(3, 2, 100 + i as u64);
            bio::run_genes2kegg(&gk, Arc::clone(&db), genes, &gk_store).run_id
        })
        .collect();
    let pd = bio::protein_discovery_workflow(20);
    let corpus = Arc::new(bio::PubMedCorpus::new(11, 60));
    let pd_store = TraceStore::in_memory();
    let terms = ["p53", "brca1", "egfr", "tnf", "myc", "kras", "pten", "akt1", "vegfa", "tp63"];
    let pd_runs: Vec<RunId> = terms
        .iter()
        .map(|&term| {
            bio::run_protein_discovery(&pd, Arc::clone(&corpus), vec![term, "tumor"], &pd_store)
                .run_id
        })
        .collect();

    let gk_out = PortRef::new("genes2Kegg", "paths_per_gene");
    let pd_out = PortRef::new("protein_discovery", "protein_terms");
    let cases = [
        (
            "GK-focused",
            &gk,
            &gk_store,
            &gk_runs,
            LineageQuery::focused(
                gk_out.clone(),
                Index::single(0),
                [ProcessorName::from("genes2Kegg")],
            ),
        ),
        (
            "GK-unfocused",
            &gk,
            &gk_store,
            &gk_runs,
            LineageQuery::unfocused(gk_out, Index::single(0), &gk),
        ),
        (
            "PD-focused",
            &pd,
            &pd_store,
            &pd_runs,
            LineageQuery::focused(
                pd_out.clone(),
                Index::single(0),
                [ProcessorName::from("protein_discovery")],
            ),
        ),
        (
            "PD-unfocused",
            &pd,
            &pd_store,
            &pd_runs,
            LineageQuery::unfocused(pd_out, Index::single(0), &pd),
        ),
    ];
    let per_run = cases.map(|(name, df, store, runs, query)| {
        let plan = IndexProj::new(df).plan(&query).unwrap();
        let (_, first) = counted(store, || plan.execute(store, runs[0]));
        for &run in &runs[1..] {
            let (_, work) = counted(store, || plan.execute(store, run));
            assert_eq!(work.index_lookups, first.index_lookups, "{name}, {run}");
        }
        for n in 1..=runs.len() {
            let (_, work) = counted(store, || plan.execute_multi(store, &runs[..n]));
            assert_eq!(work.index_lookups, n as u64 * first.index_lookups, "{name} over {n} runs");
        }
        first.index_lookups
    });
    // PD-focused ≤ GK-focused < GK-unfocused < PD-unfocused.
    assert_eq!(per_run, [3, 9, 2, 60]);
}

// ------------------------------------------------------- scope-port cost

/// NI's scope-input case on a nested workflow: `sub:a` is fed by an xfer
/// and forwards into `sub/T`, so NI finds it by its outgoing transfers;
/// `outer:xs` is a true source. INDEXPROJ reads both through `XferSrc`
/// steps.
#[test]
fn scope_port_bindings_and_their_cost_are_pinned() {
    let (atom, list) = (PortType::atom(BaseType::String), PortType::list(BaseType::String));
    let mut inner = DataflowBuilder::new("inner");
    inner.input("a", list);
    inner.processor_with_behavior("T", "identity").in_port("x", atom).out_port("y", atom);
    inner.arc_from_input("a", "T", "x").unwrap();
    inner.output("b", list);
    inner.arc_to_output("T", "y", "b").unwrap();
    let mut outer = DataflowBuilder::new("outer");
    outer.input("xs", list);
    outer.nested("sub", Arc::new(inner.build().unwrap()));
    outer.arc_from_input("xs", "sub", "a").unwrap();
    outer.output("ys", list);
    outer.arc_to_output("sub", "b", "ys").unwrap();
    let df = outer.build().unwrap();
    let store = TraceStore::in_memory();
    let inputs = vec![("xs".into(), Value::from(vec!["u", "v", "w"]))];
    let engine = Engine::new(BehaviorRegistry::new().with_builtins());
    let run = engine.execute(&df, inputs, &store).unwrap().run_id;

    let focus = ["sub", "outer"].map(ProcessorName::from);
    let q = LineageQuery::focused(PortRef::new("outer", "ys"), Index::empty(), focus);
    let (by_walk, work) = measure(&store, || NaiveLineage::new().run(&store, run, &q));
    assert_eq!(work, (45, 16, 132, 51, 0, 6), "NI");
    let want =
        r#"outer:xs[0]="u" outer:xs[1]="v" outer:xs[2]="w" sub:a[0]="u" sub:a[1]="v" sub:a[2]="w""#;
    assert_eq!(rendered(&by_walk).join(" "), want);
    let plan = IndexProj::new(&df).plan(&q).unwrap();
    let (by_plan, work) = measure(&store, || plan.execute(&store, run));
    assert_eq!(work, (2, 4, 4, 6, 0, 6), "INDEXPROJ");
    assert!(by_plan.same_bindings(&by_walk), "INDEXPROJ ≢ NI");
}
