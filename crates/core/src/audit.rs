//! Trace auditing: checks that a stored trace is consistent with its
//! workflow specification and with the iteration semantics.
//!
//! INDEXPROJ's correctness rests on Prop. 1 holding for every *xform*
//! event; the paper proves it for traces the model generates, but a
//! production provenance system also ingests traces from the wild (older
//! engine versions, partial recoveries, foreign tools). The auditor
//! re-derives the proposition per event and reports violations, making the
//! trust boundary explicit:
//!
//! * **index law** — an event's output index `q` must equal the
//!   concatenation of its per-port input indices (Prop. 1);
//! * **fragment lengths** — each input index must have exactly
//!   `max(δ_s(X_i), 0)` components (per Algorithm 1 on the spec graph);
//! * **dangling transfers** — an xfer source naming a processor output
//!   must be covered by some producing xform event.

use std::collections::HashMap;
use std::fmt;

use prov_dataflow::{Dataflow, DepthInfo};
use prov_model::{Index, ProcessorName, RunId};
use prov_store::TraceStore;

use crate::{CoreError, Result};

/// One inconsistency found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Prop. 1 failed: `q ≠ p1 · … · pn`.
    IndexLaw {
        /// Offending processor.
        processor: ProcessorName,
        /// Invocation ordinal.
        invocation: u32,
        /// The concatenation of the input indices.
        expected: Index,
        /// The recorded output index.
        found: Index,
    },
    /// An input index has the wrong number of components for its port's
    /// static mismatch.
    FragmentLength {
        /// Offending processor.
        processor: ProcessorName,
        /// Offending port.
        port: String,
        /// `max(δ_s, 0)` from Algorithm 1.
        expected: usize,
        /// Recorded index length.
        found: usize,
    },
    /// An xfer claims a source binding no xform produced.
    DanglingTransfer {
        /// The unproduced source, rendered `P:Y[p]`.
        source: String,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::IndexLaw { processor, invocation, expected, found } => write!(
                f,
                "{processor} invocation {invocation}: output index {found} ≠ concatenated input indices {expected}"
            ),
            AuditViolation::FragmentLength { processor, port, expected, found } => write!(
                f,
                "{processor}:{port}: input index has {found} components, static mismatch implies {expected}"
            ),
            AuditViolation::DanglingTransfer { source } => {
                write!(f, "xfer from {source} has no producing xform event")
            }
        }
    }
}

/// Result of auditing one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// The audited run.
    pub run: RunId,
    /// Number of xform events checked against the specification.
    pub xforms_checked: usize,
    /// Number of xfer events checked.
    pub xfers_checked: usize,
    /// Events whose processor appears nowhere in the (recursively
    /// traversed) specification — left unchecked.
    pub foreign_events: usize,
    /// Everything found wrong.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the trace passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} xforms, {} xfers checked ({} foreign) — {}",
            self.run,
            self.xforms_checked,
            self.xfers_checked,
            self.foreign_events,
            if self.is_clean() { "clean" } else { "VIOLATIONS" }
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// The statically expected index structure of one (possibly nested-scope)
/// task processor: its total iteration depth and per-port fragments.
struct IndexContract {
    total: usize,
    /// Per input port: `(name, offset, len)` within the iteration index.
    ports: Vec<(String, usize, usize)>,
}

/// Recursively collects the index contracts of every task processor,
/// keyed by scope-qualified name, descending into nested dataflows.
fn collect_contracts(
    df: &Dataflow,
    prefix: &str,
    out: &mut HashMap<ProcessorName, IndexContract>,
) -> Result<()> {
    let depths = DepthInfo::compute(df)?;
    for p in &df.processors {
        let qualified = if prefix.is_empty() {
            p.name.clone()
        } else {
            ProcessorName::from(format!("{prefix}{}", p.name).as_str())
        };
        match &p.kind {
            prov_dataflow::ProcessorKind::Task { .. } => {
                let layout = depths.layout_of(&p.name).ok_or_else(|| {
                    CoreError::Dataflow(prov_dataflow::DataflowError::UnknownProcessor(
                        p.name.to_string(),
                    ))
                })?;
                out.insert(
                    qualified,
                    IndexContract {
                        total: layout.total,
                        ports: p
                            .inputs
                            .iter()
                            .enumerate()
                            .map(|(i, port)| {
                                let (off, len) = layout.fragment_of(i);
                                (port.name.to_string(), off, len)
                            })
                            .collect(),
                    },
                );
            }
            prov_dataflow::ProcessorKind::Nested { dataflow } => {
                let inner_prefix = format!("{prefix}{}/", p.name);
                collect_contracts(dataflow, &inner_prefix, out)?;
            }
        }
    }
    Ok(())
}

/// Audits one run against its workflow specification (descending into
/// nested sub-workflows).
pub fn audit_run(df: &Dataflow, store: &TraceStore, run: RunId) -> Result<AuditReport> {
    let mut contracts = HashMap::new();
    collect_contracts(df, "", &mut contracts)?;
    let mut report = AuditReport {
        run,
        xforms_checked: 0,
        xfers_checked: 0,
        foreign_events: 0,
        violations: Vec::new(),
    };

    // Per (processor, output port): the output indices seen, for the
    // dangling-transfer check.
    let mut produced: HashMap<(ProcessorName, String), Vec<Index>> = HashMap::new();

    let view = store.pin(run);
    for rec in view.xforms_of_run() {
        report.xforms_checked += 1;
        for out in rec.outputs() {
            produced
                .entry((rec.processor.clone(), out.port.to_string()))
                .or_default()
                .push(out.index.clone());
        }
        let Some(contract) = contracts.get(&rec.processor) else {
            report.foreign_events += 1;
            continue;
        };

        // Recover the scope's global prefix G from the output index: every
        // recorded index is G · (relative index), and the relative output
        // index has exactly `total` components.
        let out_index = match rec.outputs().next() {
            Some(o) => o.index.clone(),
            None => continue,
        };
        if out_index.len() < contract.total {
            report.violations.push(AuditViolation::IndexLaw {
                processor: rec.processor.clone(),
                invocation: rec.invocation,
                expected: Index::empty(),
                found: out_index.clone(),
            });
            continue;
        }
        let g_len = out_index.len() - contract.total;
        let global = out_index.prefix(g_len);
        let q_rel = out_index.project(g_len, contract.total);

        // Each input index must be exactly G (whole-value ports) or
        // G · (its fragment of q_rel) — Prop. 1 with the nesting offset.
        for (port, off, len) in &contract.ports {
            let Some(input) = rec.input(port) else { continue };
            let expected =
                if *len == 0 { global.clone() } else { global.concat(&q_rel.project(*off, *len)) };
            if input.index != expected {
                if input.index.len() != expected.len() {
                    report.violations.push(AuditViolation::FragmentLength {
                        processor: rec.processor.clone(),
                        port: port.clone(),
                        expected: expected.len(),
                        found: input.index.len(),
                    });
                } else {
                    report.violations.push(AuditViolation::IndexLaw {
                        processor: rec.processor.clone(),
                        invocation: rec.invocation,
                        expected: expected.clone(),
                        found: input.index.clone(),
                    });
                }
            }
        }
    }

    // Dangling transfers: xfer sources on processor output ports must be
    // covered by a produced index (prefix-overlap; per-element transfers
    // are finer than the invocation-level xform indices). Workflow-scope
    // sources (the workflow name or nested scope names, which never have
    // xform events) are exempt.
    let workflow_scope = |p: &ProcessorName| {
        p == &df.name
            || df
                .processor(p)
                .map(|s| matches!(s.kind, prov_dataflow::ProcessorKind::Nested { .. }))
                .unwrap_or(true)
    };
    for rec in view.xfers_of_run() {
        report.xfers_checked += 1;
        if workflow_scope(&rec.src_processor) {
            continue;
        }
        let covered = produced
            .get(&(rec.src_processor.clone(), rec.src_port.to_string()))
            .map(|indices| {
                indices
                    .iter()
                    .any(|q| q.is_prefix_of(&rec.src_index) || rec.src_index.is_prefix_of(q))
            })
            .unwrap_or(false);
        if !covered {
            report.violations.push(AuditViolation::DanglingTransfer {
                source: format!("{}:{}{}", rec.src_processor, rec.src_port, rec.src_index),
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_engine::{BehaviorRegistry, Engine, PortBinding, TraceSink, XformEvent};
    use prov_model::{PortRef, Value};

    fn join_workflow() -> (Dataflow, BehaviorRegistry) {
        let mut b = DataflowBuilder::new("wf");
        b.input("a", PortType::list(BaseType::String));
        b.input("b", PortType::list(BaseType::String));
        b.processor_with_behavior("J", "pair")
            .in_port("x", PortType::atom(BaseType::String))
            .in_port("y", PortType::atom(BaseType::String))
            .out_port("z", PortType::atom(BaseType::String));
        b.arc_from_input("a", "J", "x").unwrap();
        b.arc_from_input("b", "J", "y").unwrap();
        b.output("out", PortType::nested(BaseType::String, 2));
        b.arc_to_output("J", "z", "out").unwrap();
        let mut r = BehaviorRegistry::new().with_builtins();
        r.register_fn("pair", |inputs: &[Value]| {
            Ok(vec![Value::str(&format!("{}{}", inputs[0], inputs[1]))])
        });
        (b.build().unwrap(), r)
    }

    #[test]
    fn engine_generated_traces_audit_clean() {
        let (df, reg) = join_workflow();
        let store = TraceStore::in_memory();
        let run = Engine::new(reg)
            .execute(
                &df,
                vec![
                    ("a".into(), Value::from(vec!["a0", "a1"])),
                    ("b".into(), Value::from(vec!["b0", "b1", "b2"])),
                ],
                &store,
            )
            .unwrap()
            .run_id;
        let report = audit_run(&df, &store, run).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.xforms_checked, 6);
        assert_eq!(report.foreign_events, 0);
    }

    #[test]
    fn nested_traces_audit_clean_with_foreign_events() {
        use std::sync::Arc;
        let mut inner = DataflowBuilder::new("inner");
        inner.input("p", PortType::atom(BaseType::String));
        inner
            .processor_with_behavior("T", "string_upper")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        inner.arc_from_input("p", "T", "x").unwrap();
        inner.output("q", PortType::atom(BaseType::String));
        inner.arc_to_output("T", "y", "q").unwrap();
        let inner = Arc::new(inner.build().unwrap());

        let mut outer = DataflowBuilder::new("outer");
        outer.input("xs", PortType::list(BaseType::String));
        outer.nested("sub", inner);
        outer.arc_from_input("xs", "sub", "p").unwrap();
        outer.output("ys", PortType::list(BaseType::String));
        outer.arc_to_output("sub", "q", "ys").unwrap();
        let df = outer.build().unwrap();

        let store = TraceStore::in_memory();
        let run = Engine::new(BehaviorRegistry::new().with_builtins())
            .execute(&df, vec![("xs".into(), Value::from(vec!["u", "v"]))], &store)
            .unwrap()
            .run_id;
        let report = audit_run(&df, &store, run).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.foreign_events, 0); // sub/T has a contract too
    }

    #[test]
    fn corrupted_output_index_is_flagged() {
        let (df, _) = join_workflow();
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        // Hand-craft an event violating Prop. 1: q should be [0]·[1].
        store.record_xform(
            run,
            XformEvent {
                processor: ProcessorName::from("J"),
                invocation: 0,
                inputs: vec![
                    PortBinding::new("x", Index::single(0), Value::str("a0")),
                    PortBinding::new("y", Index::single(1), Value::str("b1")),
                ],
                outputs: vec![PortBinding::new(
                    "z",
                    Index::from_slice(&[1, 0]), // swapped!
                    Value::str("a0b1"),
                )],
            },
        );
        let report = audit_run(&df, &store, run).unwrap();
        // Both input ports disagree with the recorded output index.
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations.iter().all(|v| matches!(v, AuditViolation::IndexLaw { .. })));
        assert!(report.to_string().contains("VIOLATIONS"));
    }

    #[test]
    fn wrong_fragment_length_is_flagged() {
        let (df, _) = join_workflow();
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        store.record_xform(
            run,
            XformEvent {
                processor: ProcessorName::from("J"),
                invocation: 0,
                inputs: vec![
                    // δ_s(x) = 1, but a 2-component index was recorded.
                    PortBinding::new("x", Index::from_slice(&[0, 0]), Value::str("a0")),
                    PortBinding::new("y", Index::single(0), Value::str("b0")),
                ],
                outputs: vec![PortBinding::new("z", Index::from_slice(&[0, 0]), Value::str("v"))],
            },
        );
        let report = audit_run(&df, &store, run).unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, AuditViolation::FragmentLength { found: 2, expected: 1, .. })),
            "{report}"
        );
    }

    #[test]
    fn dangling_transfer_is_flagged() {
        let (df, _) = join_workflow();
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        // An xfer from J:z[5,5] with no xform producing it.
        store.record_xfer(
            run,
            prov_engine::XferEvent {
                src: PortRef::new("J", "z"),
                src_index: Index::from_slice(&[5, 5]),
                dst: PortRef::new("wf", "out"),
                dst_index: Index::from_slice(&[5, 5]),
                value: Value::str("ghost"),
            },
        );
        let report = audit_run(&df, &store, run).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(report.violations[0], AuditViolation::DanglingTransfer { .. }));
        // Workflow-scope sources are exempt.
        store.record_xfer(
            run,
            prov_engine::XferEvent {
                src: PortRef::new("wf", "a"),
                src_index: Index::single(0),
                dst: PortRef::new("J", "x"),
                dst_index: Index::single(0),
                value: Value::str("a0"),
            },
        );
        let report = audit_run(&df, &store, run).unwrap();
        assert_eq!(report.violations.len(), 1);
    }
}
