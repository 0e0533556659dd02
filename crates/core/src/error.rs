//! Lineage query errors.

use std::fmt;

use prov_dataflow::DataflowError;
use prov_store::StoreError;

use crate::ParseError;

/// Errors raised by lineage query processing.
#[derive(Debug)]
pub enum CoreError {
    /// The workflow specification is invalid or lacks the queried port.
    Dataflow(DataflowError),
    /// The trace store failed.
    Store(StoreError),
    /// The query's target port is not a workflow output or processor output
    /// of the given dataflow.
    UnknownTarget {
        /// Rendered `P:Y` reference.
        target: String,
    },
    /// The plan verifier found error-level problems (`E1xx`): the store
    /// cannot execute the plan as compiled.
    PlanRejected {
        /// The error-level findings, in stable diagnostic order.
        findings: Vec<prov_dataflow::Diagnostic>,
    },
    /// A [`QueryCtx`](prov_obs::QueryCtx) deadline passed mid-execution;
    /// the query was abandoned between steps. Work already performed is
    /// still reflected in the store counters and journal.
    DeadlineExceeded {
        /// The query's source text.
        query: String,
    },
    /// The request's query text is not in the paper notation.
    Parse(ParseError),
    /// The request names an algorithm other than `ni` or `indexproj`.
    UnknownAlgo {
        /// The algorithm name as requested.
        algo: String,
    },
    /// INDEXPROJ needs a workflow specification, and the request supplied
    /// none while the store registers none.
    NoWorkflow,
    /// INDEXPROJ needs a workflow specification, and the request named
    /// none while the store registers several.
    AmbiguousWorkflow {
        /// The registered workflow names.
        names: Vec<String>,
    },
    /// The request names a workflow the store does not register.
    WorkflowNotRegistered {
        /// The workflow name as requested.
        name: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Dataflow(e) => write!(f, "{e}"),
            CoreError::Store(e) => write!(f, "{e}"),
            CoreError::UnknownTarget { target } => {
                write!(f, "query target {target} is not a port of this workflow")
            }
            CoreError::PlanRejected { findings } => {
                write!(f, "plan rejected by the verifier: {} finding(s)", findings.len())?;
                for d in findings {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            CoreError::DeadlineExceeded { query } => {
                write!(f, "query {query:?} abandoned: deadline exceeded")
            }
            CoreError::Parse(e) => write!(f, "{e}"),
            CoreError::UnknownAlgo { algo } => {
                write!(f, "unknown algo {algo:?} (use ni or indexproj)")
            }
            CoreError::NoWorkflow => write!(f, "no workflow registered in the store"),
            CoreError::AmbiguousWorkflow { names } => {
                write!(
                    f,
                    "store registers {} workflows ({}) and the request names none",
                    names.len(),
                    names.join(", ")
                )
            }
            CoreError::WorkflowNotRegistered { name } => {
                write!(f, "workflow {name:?} is not registered in the store")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<DataflowError> for CoreError {
    fn from(e: DataflowError) -> Self {
        CoreError::Dataflow(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<ParseError> for CoreError {
    fn from(e: ParseError) -> Self {
        CoreError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        let e = CoreError::UnknownTarget { target: "P:Y".into() };
        assert!(e.to_string().contains("P:Y"));
        let e: CoreError = DataflowError::UnknownProcessor("Z".into()).into();
        assert!(matches!(e, CoreError::Dataflow(_)));
    }
}
