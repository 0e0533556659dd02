//! # taverna-prov
//!
//! Facade crate for the reproduction of Missier, Paton & Belhajjame,
//! *"Fine-grained and efficient lineage querying of collection-based
//! workflow provenance"* (EDBT 2010).
//!
//! The workspace is organised bottom-up (see `DESIGN.md`):
//!
//! * [`model`] — nested-collection values, indices, port types, bindings;
//! * [`dataflow`] — the workflow specification graph and Algorithm 1
//!   (static depth propagation);
//! * [`engine`] — Taverna's implicit iteration semantics (Defs. 2–3) and a
//!   data-driven executor that emits fine-grained provenance events;
//! * [`store`] — an embedded relational trace store (the paper used MySQL);
//! * [`lineage`] — the paper's contribution: Def. 1 lineage queries, the
//!   naïve baseline **NI**, and the **INDEXPROJ** algorithm (Alg. 2) that
//!   traverses the spec graph instead of the provenance graph;
//! * [`workgen`] — the synthetic testbed of §4.1 plus the GK/PD workflows.
//!
//! ## Quickstart
//!
//! ```
//! use taverna_prov::prelude::*;
//!
//! // A two-processor pipeline: split a string, then tag each element.
//! let mut b = DataflowBuilder::new("demo");
//! b.input("words", PortType::list(BaseType::String));
//! b.processor("tag")
//!     .in_port("w", PortType::atom(BaseType::String))
//!     .out_port("t", PortType::atom(BaseType::String));
//! b.arc_from_input("words", "tag", "w").unwrap();
//! b.output("tagged", PortType::list(BaseType::String));
//! b.arc_to_output("tag", "t", "tagged").unwrap();
//! let dataflow = b.build().unwrap();
//!
//! let mut registry = BehaviorRegistry::new();
//! registry.register_fn("tag", |inputs| {
//!     let w = inputs[0].as_atom().unwrap().as_str().unwrap();
//!     Ok(vec![Value::str(&format!("{w}!"))])
//! });
//!
//! let store = TraceStore::in_memory();
//! let engine = Engine::new(registry);
//! let run = engine
//!     .execute(
//!         &dataflow,
//!         vec![("words".into(), Value::from(vec!["a", "b"]))],
//!         &store,
//!     )
//!     .unwrap();
//!
//! // Fine-grained lineage: which input produced tagged[1]?
//! let q = LineageQuery::focused(
//!     PortRef::new("demo", "tagged"),
//!     Index::single(1),
//!     [ProcessorName::from("demo")],
//! );
//! let answer = IndexProj::new(&dataflow).run(&store, run.run_id, &q).unwrap();
//! assert_eq!(answer.bindings[0].value, Value::str("b"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub use prov_core as lineage;
pub use prov_dataflow as dataflow;
pub use prov_engine as engine;
pub use prov_model as model;
pub use prov_obs as obs;
pub use prov_store as store;
pub use prov_workgen as workgen;

/// One-stop imports for typical use.
pub mod prelude {
    pub use prov_core::{
        exec, Env, ImpactQuery, IndexProj, LineageAnswer, LineagePlan, LineageQuery, NaiveImpact,
        NaiveLineage, PlanCache, PlanCacheStats, QueryRequest, RunSelection, WorkflowCache,
    };
    pub use prov_dataflow::{BaseType, Dataflow, DataflowBuilder, PortType};
    pub use prov_engine::{Behavior, BehaviorRegistry, Engine, RunOutcome};
    pub use prov_model::{Atom, Binding, Index, PortRef, ProcessorName, RunId, Value, ValueId};
    pub use prov_obs::{Obs, Profiler, QueryCtx, Registry};
    pub use prov_store::TraceStore;
}
