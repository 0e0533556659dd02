//! Relational row types for the trace tables.
//!
//! The normalisation mirrors what the paper's MySQL schema must have looked
//! like: an `xform` table (one row per elementary invocation), an
//! `xform_port` table (one row per port binding of an invocation), and an
//! `xfer` table (one row per transferred element). Values are referenced by
//! [`ValueId`] into a content-addressed value table.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use prov_model::{Index, ProcessorName, RunId, ValueId};

/// Whether an `xform_port` row is on the consuming or producing side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PortDirection {
    /// The row records a consumed input element.
    In,
    /// The row records a produced output element.
    Out,
}

/// One row of the `xform` table: an elementary processor invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XformRecord {
    /// Primary key (global, monotone).
    pub id: u64,
    /// The trace this invocation belongs to.
    pub run: RunId,
    /// The (scope-qualified) processor.
    pub processor: ProcessorName,
    /// Invocation ordinal within (run, processor).
    pub invocation: u32,
    /// Port rows (inputs then outputs, in port order). Embedded rather than
    /// joined at query time: the store hands back the whole invocation,
    /// which is what both NI and INDEXPROJ consume.
    pub ports: Vec<XformPortRecord>,
}

impl XformRecord {
    /// Iterator over the input-side port rows.
    pub fn inputs(&self) -> impl Iterator<Item = &XformPortRecord> {
        self.ports.iter().filter(|p| p.direction == PortDirection::In)
    }

    /// Iterator over the output-side port rows.
    pub fn outputs(&self) -> impl Iterator<Item = &XformPortRecord> {
        self.ports.iter().filter(|p| p.direction == PortDirection::Out)
    }

    /// The port row for the named input port, if present.
    pub fn input(&self, port: &str) -> Option<&XformPortRecord> {
        self.inputs().find(|p| &*p.port == port)
    }

    /// The port row for the named output port, if present.
    pub fn output(&self, port: &str) -> Option<&XformPortRecord> {
        self.outputs().find(|p| &*p.port == port)
    }
}

/// One row of the `xform_port` table: a single `⟨P:X[p], v⟩` binding of an
/// invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XformPortRecord {
    /// Input or output side.
    pub direction: PortDirection,
    /// Port name.
    pub port: Arc<str>,
    /// Element index within the port's full value (empty = whole).
    pub index: Index,
    /// The element, by reference into the value table.
    pub value: ValueId,
}

/// One row of the `xfer` table: one element moved along one arc.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XferRecord {
    /// Primary key (global, monotone).
    pub id: u64,
    /// The trace this transfer belongs to.
    pub run: RunId,
    /// Source processor (scope-qualified).
    pub src_processor: ProcessorName,
    /// Source port.
    pub src_port: Arc<str>,
    /// Element index at the source.
    pub src_index: Index,
    /// Destination processor (scope-qualified).
    pub dst_processor: ProcessorName,
    /// Destination port.
    pub dst_port: Arc<str>,
    /// Element index at the destination.
    pub dst_index: Index,
    /// The transferred element, by reference.
    pub value: ValueId,
}

// ---------------------------------------------------------------------
// Internal interned rows
// ---------------------------------------------------------------------
//
// The heap stores names as symbols (and values by id) so rows are compact
// and insertion never clones strings. The public record types above are
// materialised from these at the API boundary by resolving symbols through
// the store's symbol table.

use crate::symbols::Sym;

/// Internal form of [`XformRecord`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct XformRow {
    pub id: u64,
    pub run: RunId,
    pub processor: Sym,
    pub invocation: u32,
    pub ports: Vec<XformPortRow>,
}

impl XformRow {
    /// Iterator over the input-side port rows.
    pub fn inputs(&self) -> impl Iterator<Item = &XformPortRow> {
        self.ports.iter().filter(|p| p.direction == PortDirection::In)
    }

    /// Iterator over the output-side port rows.
    pub fn outputs(&self) -> impl Iterator<Item = &XformPortRow> {
        self.ports.iter().filter(|p| p.direction == PortDirection::Out)
    }
}

/// Internal form of [`XformPortRecord`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct XformPortRow {
    pub direction: PortDirection,
    pub port: Sym,
    pub index: Index,
    pub value: ValueId,
}

/// Internal form of [`XferRecord`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct XferRow {
    pub id: u64,
    pub run: RunId,
    pub src_processor: Sym,
    pub src_port: Sym,
    pub src_index: Index,
    pub dst_processor: Sym,
    pub dst_port: Sym,
    pub dst_index: Index,
    pub value: ValueId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> XformRecord {
        XformRecord {
            id: 1,
            run: RunId(0),
            processor: ProcessorName::from("P"),
            invocation: 0,
            ports: vec![
                XformPortRecord {
                    direction: PortDirection::In,
                    port: Arc::from("x1"),
                    index: Index::single(0),
                    value: ValueId(10),
                },
                XformPortRecord {
                    direction: PortDirection::In,
                    port: Arc::from("x2"),
                    index: Index::empty(),
                    value: ValueId(11),
                },
                XformPortRecord {
                    direction: PortDirection::Out,
                    port: Arc::from("y"),
                    index: Index::single(0),
                    value: ValueId(12),
                },
            ],
        }
    }

    #[test]
    fn sides_are_separated() {
        let r = record();
        assert_eq!(r.inputs().count(), 2);
        assert_eq!(r.outputs().count(), 1);
        assert_eq!(r.input("x2").unwrap().value, ValueId(11));
        assert_eq!(r.output("y").unwrap().index, Index::single(0));
        assert!(r.input("y").is_none());
        assert!(r.output("x1").is_none());
    }

    #[test]
    fn rows_serde_round_trip() {
        let r = record();
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<XformRecord>(&json).unwrap(), r);
    }
}
