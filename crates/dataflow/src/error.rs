//! Dataflow specification errors.

use std::fmt;

/// Errors raised while building, validating or analysing a dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A referenced processor does not exist.
    UnknownProcessor(String),
    /// A referenced port does not exist on the given processor (or on the
    /// workflow interface when `processor` is the workflow name).
    UnknownPort {
        /// Owning processor (or workflow) name.
        processor: String,
        /// Missing port name.
        port: String,
    },
    /// Two processors (or two ports on one processor) share a name.
    DuplicateName(String),
    /// A processor input port (or workflow output) is the destination of
    /// more than one arc.
    MultipleWriters {
        /// Rendered destination, e.g. `P:x`.
        destination: String,
    },
    /// The processor graph contains a cycle (dataflows must be DAGs).
    Cyclic {
        /// A processor on the cycle.
        witness: String,
    },
    /// A workflow output port has no incoming arc.
    UnboundOutput(String),
    /// A nested processor's ports do not match its sub-workflow interface.
    NestedInterfaceMismatch {
        /// The nested processor name.
        processor: String,
    },
    /// A dot-iteration (zip) processor whose ports carry unequal positive
    /// depth mismatches — lockstep iteration is undefined for them.
    DotMismatch {
        /// The processor name.
        processor: String,
        /// The positive fragment lengths found, in input-port order.
        lens: Vec<usize>,
    },
    /// A serialized specification is not well-formed dataflow JSON
    /// (carries the parser's message).
    InvalidJson(String),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::UnknownProcessor(p) => write!(f, "unknown processor {p:?}"),
            DataflowError::UnknownPort { processor, port } => {
                write!(f, "unknown port {port:?} on {processor:?}")
            }
            DataflowError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            DataflowError::MultipleWriters { destination } => {
                write!(f, "multiple arcs write to {destination}")
            }
            DataflowError::Cyclic { witness } => {
                write!(f, "dataflow graph is cyclic (through {witness:?})")
            }
            DataflowError::UnboundOutput(p) => {
                write!(f, "workflow output {p:?} has no incoming arc")
            }
            DataflowError::NestedInterfaceMismatch { processor } => {
                write!(
                    f,
                    "nested processor {processor:?} does not match its sub-workflow interface"
                )
            }
            DataflowError::DotMismatch { processor, lens } => {
                write!(
                    f,
                    "processor {processor:?}: dot iteration requires equal positive mismatches, found {lens:?}"
                )
            }
            DataflowError::InvalidJson(message) => write!(f, "invalid workflow JSON: {message}"),
        }
    }
}

impl std::error::Error for DataflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(DataflowError::UnknownProcessor("P".into()).to_string().contains("\"P\""));
        assert!(DataflowError::Cyclic { witness: "Q".into() }.to_string().contains("\"Q\""));
        assert!(DataflowError::MultipleWriters { destination: "P:x".into() }
            .to_string()
            .contains("P:x"));
    }
}
